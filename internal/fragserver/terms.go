package fragserver

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"shaclfrag/internal/rdf"
	"shaclfrag/internal/turtle"
)

// parseTermParam parses one HTTP query parameter as an RDF term. Accepted
// forms:
//
//	<http://example.org/x>      bracketed IRI
//	http://example.org/x        bare IRI (needs a scheme, no delimiters)
//	"chamois"                   plain literal
//	"chamois"@en                language-tagged literal
//	"42"^^<http://…#integer>    datatyped literal
//	42, 4.2, true, false        Turtle shorthand literals
//	_:b0                        blank node
//
// Malformed input yields a descriptive error (the handlers turn it into
// HTTP 400); this function never panics.
func parseTermParam(raw string) (rdf.Term, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return rdf.Term{}, errors.New("empty term")
	}
	switch {
	case strings.HasPrefix(raw, "<"), strings.HasPrefix(raw, `"`),
		strings.HasPrefix(raw, "_:"), looksNumericOrBoolean(raw):
		return parseTermViaTurtle(raw)
	default:
		return parseBareIRI(raw)
	}
}

// parseTermViaTurtle reuses the Turtle parser by placing the raw text in
// the object position of a probe triple; exactly one triple must come back,
// which also rejects smuggled terminators and object lists. The probe is
// closed once on raw's own line and once on the next: a '#' comment in raw
// then fails one of the two parses — on the same line it swallows the
// terminator, after a terminator smuggled into raw it leaves the next
// line's "." dangling — so an accepted term is exactly the raw text.
func parseTermViaTurtle(raw string) (rdf.Term, error) {
	const probe = "<http://fragserver.invalid/s> <http://fragserver.invalid/p> "
	var term rdf.Term
	for i, end := range []string{" .", "\n."} {
		ts, err := turtle.ParseTriples(probe + raw + end)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("malformed term %q: %v", raw, err)
		}
		if len(ts) != 1 || (i > 0 && ts[0].O != term) {
			return rdf.Term{}, fmt.Errorf("malformed term %q: expected a single term", raw)
		}
		term = ts[0].O
	}
	return term, nil
}

// parseBareIRI accepts un-bracketed IRIs for curl convenience, rejecting
// anything that could not be an IRI (invalid UTF-8, whitespace, Turtle
// delimiters, no scheme separator).
func parseBareIRI(raw string) (rdf.Term, error) {
	if !utf8.ValidString(raw) {
		return rdf.Term{}, fmt.Errorf("malformed IRI %q: not valid UTF-8", raw)
	}
	if strings.ContainsAny(raw, " \t\r\n<>\"'`{}|\\^") {
		return rdf.Term{}, fmt.Errorf("malformed IRI %q: contains whitespace or delimiter characters (bracket IRIs as <iri>, quote literals)", raw)
	}
	if !strings.Contains(raw, ":") {
		return rdf.Term{}, fmt.Errorf("malformed IRI %q: an IRI needs a scheme (or use ?name for a variable)", raw)
	}
	return rdf.NewIRI(raw), nil
}

func looksNumericOrBoolean(raw string) bool {
	if raw == "true" || raw == "false" {
		return true
	}
	c := raw[0]
	return c == '+' || c == '-' || (c >= '0' && c <= '9')
}
