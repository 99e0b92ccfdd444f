// Package doclint statically checks the repository's markdown
// documentation against the code it describes. These defect classes rot
// silently as a codebase grows and are cheap to gate in CI:
//
//   - intra-repo links: a renamed or deleted file (or section heading)
//     leaves `[text](path#anchor)` references dangling;
//   - documented flags: a `-flag` mentioned in running prose or a flag
//     table survives the flag's removal from the command that owned it;
//   - documented subcommands: a `cmd sub` invocation survives the
//     subcommand's rename or removal from the command's dispatch switch;
//   - the metric catalog: a registered metric family is never added to
//     the operations guide's catalog tables, or a row outlives the
//     family it documents.
//
// External links (anything with a URL scheme) are out of scope — their
// liveness is not this repository's invariant. Fenced code blocks are
// skipped entirely for link checking (a markdown link inside a code
// sample is not a link), while flag tokens are checked only inside
// inline code spans, where the documentation's flag tables and prose
// keep them by convention.
package doclint

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Finding is one documentation defect, positioned for editor jumps.
type Finding struct {
	File    string // path relative to the lint root
	Line    int    // 1-based
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s", f.File, f.Line, f.Message)
}

// linkRe matches inline markdown links and images: [text](target) with
// an optional "title". Reference-style links are not used in this repo.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// Links verifies every intra-repo markdown link in files (paths
// relative to root): the target file must exist, and a #fragment into a
// markdown file must name one of its headings (GitHub slug rules).
func Links(root string, files []string) []Finding {
	var findings []Finding
	headings := map[string]map[string]bool{} // md path → slug set
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			findings = append(findings, Finding{File: file, Message: err.Error()})
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				path, frag, _ := strings.Cut(target, "#")
				rel := file // anchor-only links point into the same file
				if path != "" {
					rel = filepath.Join(filepath.Dir(file), path)
					if _, err := os.Stat(filepath.Join(root, rel)); err != nil {
						findings = append(findings, Finding{File: file, Line: i + 1,
							Message: fmt.Sprintf("broken link %q: no file %s", target, rel)})
						continue
					}
				}
				if frag == "" || !strings.HasSuffix(rel, ".md") {
					continue
				}
				slugs, ok := headings[rel]
				if !ok {
					slugs = headingSlugs(filepath.Join(root, rel))
					headings[rel] = slugs
				}
				if !slugs[frag] {
					findings = append(findings, Finding{File: file, Line: i + 1,
						Message: fmt.Sprintf("broken link %q: no heading #%s in %s", target, frag, rel)})
				}
			}
		}
	}
	return findings
}

// headingSlugs returns the GitHub-style anchor slugs of every markdown
// heading in the file (missing or unreadable files yield an empty set —
// the file-existence check has already reported those).
func headingSlugs(path string) map[string]bool {
	slugs := map[string]bool{}
	data, err := os.ReadFile(path)
	if err != nil {
		return slugs
	}
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if !strings.HasPrefix(text, " ") {
			continue
		}
		slugs[slugify(strings.TrimSpace(text))] = true
	}
	return slugs
}

// slugify approximates GitHub's heading-anchor algorithm: lowercase,
// spaces to hyphens, punctuation dropped (hyphens and underscores
// kept). Good enough for the ASCII-with-punctuation headings this
// repository uses; duplicate-heading -1 suffixes are not modeled.
func slugify(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r == ' ' || r == '\t':
			b.WriteByte('-')
		case r == '-' || r == '_',
			'a' <= r && r <= 'z', '0' <= r && r <= '9', r > 127:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// flagDefRe matches flag definitions in Go source: method calls like
// flag.String("name", …) / fs.Bool("name", …) / flag.Func("name", …).
var flagDefRe = regexp.MustCompile(`\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|Var)\(\s*"([a-zA-Z0-9-]+)"`)

// DefinedFlags scans every non-test Go file under root/cmdDir for flag
// definitions and returns the set of defined flag names — the ground
// truth the documentation is checked against.
func DefinedFlags(root, cmdDir string) (map[string]bool, error) {
	defined := map[string]bool{}
	srcs, err := filepath.Glob(filepath.Join(root, cmdDir, "*", "*.go"))
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			return nil, err
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(data), -1) {
			defined[m[2]] = true
		}
	}
	return defined, nil
}

// toolFlags are flags of the Go toolchain (and test binaries) that the
// documentation legitimately mentions without this repo defining them.
var toolFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "count": true,
	"run": true, "race": true, "short": true, "fuzz": true,
	"fuzztime": true, "cover": true, "coverprofile": true,
	"cpuprofile": true, "memprofile": true, "update": true, "v": true,
}

// spanRe matches inline code spans; flagTokRe finds flag-like tokens
// inside one (leading position or after whitespace, so `X-Epoch` and
// negative numbers don't match).
var (
	spanRe    = regexp.MustCompile("`([^`]+)`")
	flagTokRe = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9]*(?:-[a-z0-9]+)*)`)
)

// Flags reports every `-flag` token documented in an inline code span
// of files that no command defines (per defined, from DefinedFlags) and
// that is not a known Go toolchain flag.
func Flags(root string, files []string, defined map[string]bool) []Finding {
	var findings []Finding
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			findings = append(findings, Finding{File: file, Message: err.Error()})
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range spanRe.FindAllStringSubmatch(line, -1) {
				for _, tok := range flagTokRe.FindAllStringSubmatch(span[1], -1) {
					if name := tok[1]; !defined[name] && !toolFlags[name] {
						findings = append(findings, Finding{File: file, Line: i + 1,
							Message: fmt.Sprintf("documented flag -%s is not defined by any command", name)})
					}
				}
			}
		}
	}
	return findings
}

// subcmdArmRe matches string dispatch arms in Go source — the whole
// alternative list of a case like `case "-h", "--help", "help":` — and
// subcmdNameRe then extracts the subcommand-shaped strings from it.
// Quoted strings with characters outside [a-z0-9-] (flag aliases like
// "-h", mode values with dots) are not subcommand names and don't
// match the second pass.
var (
	subcmdArmRe  = regexp.MustCompile(`case\s+("[^"\n]*"(?:\s*,\s*"[^"\n]*")*)\s*:`)
	subcmdNameRe = regexp.MustCompile(`"([a-z][a-z0-9-]*)"`)
)

// DefinedSubcommands scans every non-test Go file under root/cmdDir and
// returns, per command (its directory's base name), the set of
// subcommand names its dispatch switch accepts. Commands whose sources
// contain no string case-arms are omitted: they take flags only, and a
// word after their name in documentation is an operand, not a
// subcommand. The text-level scan over-approximates (string switches in
// helpers count too, like mode-flag values) — which can only suppress
// findings, never invent them, the same trade DefinedFlags makes.
func DefinedSubcommands(root, cmdDir string) (map[string]map[string]bool, error) {
	defined := map[string]map[string]bool{}
	srcs, err := filepath.Glob(filepath.Join(root, cmdDir, "*", "*.go"))
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			return nil, err
		}
		cmd := filepath.Base(filepath.Dir(src))
		for _, arm := range subcmdArmRe.FindAllStringSubmatch(string(data), -1) {
			for _, m := range subcmdNameRe.FindAllStringSubmatch(arm[1], -1) {
				if defined[cmd] == nil {
					defined[cmd] = map[string]bool{}
				}
				defined[cmd][m[1]] = true
			}
		}
	}
	return defined, nil
}

// Subcommands reports every `cmd sub` invocation documented in an
// inline code span where cmd dispatches on subcommands (it has an entry
// in defined, from DefinedSubcommands) but does not define sub. Like
// the flag check, only inline code spans are scanned — prose such as
// "shaclfrag and its server" never looks like an invocation there.
func Subcommands(root string, files []string, defined map[string]map[string]bool) []Finding {
	type matcher struct {
		cmd  string
		re   *regexp.Regexp
		subs map[string]bool
	}
	var matchers []matcher
	for cmd, subs := range defined {
		// The command name may appear bare or as a path (./cmd/shaclfrag,
		// ./bin/shaclfrag); the word after it is the claimed subcommand.
		re := regexp.MustCompile(`(?:^|[\s/])` + regexp.QuoteMeta(cmd) + `\s+([a-z][a-z0-9-]*)`)
		matchers = append(matchers, matcher{cmd: cmd, re: re, subs: subs})
	}
	sort.Slice(matchers, func(i, j int) bool { return matchers[i].cmd < matchers[j].cmd })

	var findings []Finding
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			findings = append(findings, Finding{File: file, Message: err.Error()})
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range spanRe.FindAllStringSubmatch(line, -1) {
				for _, m := range matchers {
					for _, tok := range m.re.FindAllStringSubmatch(span[1], -1) {
						if sub := tok[1]; !m.subs[sub] {
							findings = append(findings, Finding{File: file, Line: i + 1,
								Message: fmt.Sprintf("documented subcommand %q is not defined by %s", sub, m.cmd)})
						}
					}
				}
			}
		}
	}
	return findings
}

// metricNameRe matches a whole metric family name in one of the
// namespaces the server exports.
var metricNameRe = regexp.MustCompile(`^(?:fragserver|runtime|go)_[a-z0-9_]+$`)

// DefinedMetrics scans the string literals of every non-test Go file in
// root/dir for each dir and returns the metric family names among them:
// literals that are exactly a fragserver_*, runtime_* or go_* name. The
// registries name their families with such literals, so this is the set
// the metric catalog is checked against.
func DefinedMetrics(root string, dirs ...string) (map[string]bool, error) {
	defined := map[string]bool{}
	for _, dir := range dirs {
		srcs, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			data, err := os.ReadFile(src)
			if err != nil {
				return nil, err
			}
			var sc scanner.Scanner
			fset := token.NewFileSet()
			sc.Init(fset.AddFile(src, fset.Base(), len(data)), data, nil, 0)
			for {
				_, tok, lit := sc.Scan()
				if tok == token.EOF {
					break
				}
				if tok != token.STRING {
					continue
				}
				if name, err := strconv.Unquote(lit); err == nil && metricNameRe.MatchString(name) {
					defined[name] = true
				}
			}
		}
	}
	return defined, nil
}

// catalogHeading opens the metric catalog section; its tables run to the
// next level-2 heading.
const catalogHeading = "## Metric catalog"

// Metrics checks the metric catalog in file (relative to root) against
// defined, from DefinedMetrics. A catalog row is a table row under the
// catalog heading whose first cell is a code span naming a family. Every
// defined family must have a row, and every row must name a defined
// family.
func Metrics(root, file string, defined map[string]bool) []Finding {
	data, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		return []Finding{{File: file, Message: err.Error()}}
	}
	var findings []Finding
	heading := 0 // line of the catalog heading, 0 until seen
	rows := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			if heading > 0 {
				break
			}
			if strings.TrimSpace(line) == catalogHeading {
				heading = i + 1
			}
			continue
		}
		if heading == 0 || !strings.HasPrefix(line, "|") {
			continue
		}
		cell := strings.TrimSpace(strings.Split(line, "|")[1])
		name := strings.Trim(cell, "`")
		if cell != "`"+name+"`" || !metricNameRe.MatchString(name) {
			continue
		}
		rows[name] = true
		if !defined[name] {
			findings = append(findings, Finding{File: file, Line: i + 1,
				Message: fmt.Sprintf("catalog row names metric family %s, which no code registers", name)})
		}
	}
	if heading == 0 {
		return append(findings, Finding{File: file, Message: "no \"" + catalogHeading + "\" section"})
	}
	var missing []string
	for name := range defined {
		if !rows[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		findings = append(findings, Finding{File: file, Line: heading,
			Message: fmt.Sprintf("registered metric family %s has no catalog row", name)})
	}
	return findings
}
