package fragserver

import (
	"strings"
	"testing"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/turtle"
)

// FuzzParseTermParam fuzzes the /node and /tpf term parser, which reads
// untrusted query bytes. It must never panic, must reject blank input,
// must map an accepted escape-free <iri> to exactly rdf.NewIRI(iri), and
// every term it accepts must serialize back as a single triple's object —
// so nothing a client smuggles into a parameter can grow extra triples.
// The seeds cover each documented form plus triple-smuggling payloads.
func FuzzParseTermParam(f *testing.F) {
	for _, seed := range []string{
		"<http://example.org/x>",
		"http://example.org/x",
		`"chamois"`,
		`"chamois"@en`,
		`"42"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		"42", "4.2", "-1e3", "true", "false",
		"_:b0",
		"",
		"  \t ",
		"<http://a> . <x> <y> <z",
		`"x" . <x> <y> <z`,
		"_:b0 . <x> <y> <z",
		"42 . <x> <y> <z",
		"<http://a>, <http://b>",
		`"unterminated`,
		"<unterminated",
		"bare-word",
	} {
		f.Add(seed)
	}
	const s, p = "http://fragserver.invalid/s", "http://fragserver.invalid/p"
	f.Fuzz(func(t *testing.T, raw string) {
		term, err := parseTermParam(raw)
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" {
			if err == nil {
				t.Fatalf("blank input %q accepted as %#v", raw, term)
			}
			return
		}
		if err != nil {
			return
		}
		if inner, ok := strings.CutPrefix(trimmed, "<"); ok && strings.HasSuffix(inner, ">") && !strings.Contains(inner, `\`) {
			if want := rdf.NewIRI(strings.TrimSuffix(inner, ">")); term != want {
				t.Fatalf("%q parsed to %#v, want %#v", raw, term, want)
			}
		}
		out := turtle.FormatNTriples([]rdf.Triple{{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: term}})
		ts, err := turtle.ParseTriples(out)
		if err != nil || len(ts) != 1 || ts[0].O != term {
			t.Fatalf("%q accepted as %#v, but its serialization %q re-parses to %v (err %v)", raw, term, out, ts, err)
		}
	})
}
