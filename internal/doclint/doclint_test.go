package doclint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func messages(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String() + "\n")
	}
	return b.String()
}

func TestLinks(t *testing.T) {
	root := t.TempDir()
	write(t, root, "docs/GUIDE.md", "# Guide\n\n## Deep Dive\n\ntext\n")
	write(t, root, "README.md", strings.Join([]string{
		"# Top",
		"[ok](docs/GUIDE.md)",
		"[ok anchor](docs/GUIDE.md#deep-dive)",
		"[self](#top)",
		"[external](https://example.com/missing.md) stays unchecked",
		"[gone](docs/MISSING.md)",
		"[bad anchor](docs/GUIDE.md#nope)",
		"[bad self](#nothing)",
		"```",
		"[inside a fence](docs/ALSO_MISSING.md)",
		"```",
	}, "\n"))
	got := Links(root, []string{"README.md", "docs/GUIDE.md"})
	if len(got) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(got), messages(got))
	}
	for i, want := range []struct {
		line int
		frag string
	}{{6, "docs/MISSING.md"}, {7, "#nope"}, {8, "#nothing"}} {
		if got[i].Line != want.line || !strings.Contains(got[i].Message, want.frag) {
			t.Errorf("finding %d = %s, want line %d mentioning %s", i, got[i], want.line, want.frag)
		}
	}
	// Relative resolution is from the linking file's directory.
	write(t, root, "docs/OTHER.md", "[up](../README.md#top)\n[upbad](../GONE.md)\n")
	got = Links(root, []string{"docs/OTHER.md"})
	if len(got) != 1 || !strings.Contains(got[0].Message, "GONE.md") {
		t.Fatalf("relative resolution: %s", messages(got))
	}
}

func TestSlugify(t *testing.T) {
	for in, want := range map[string]string{
		"Planner and plan-cache metrics": "planner-and-plan-cache-metrics",
		"Reading the planner metrics":    "reading-the-planner-metrics",
		"What `-flags` do: a guide!":     "what--flags-do-a-guide",
		"Frag(G, H) über alles":          "fragg-h-über-alles",
	} {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDefinedFlags(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/tool/main.go", `package main
import "flag"
func main() {
	flag.String("data", "", "data file")
	fs := flag.NewFlagSet("sub", flag.ExitOnError)
	fs.Bool("dry-run", false, "plan only")
	flag.Func("meta", "kv", func(string) error { return nil })
}
`)
	write(t, root, "cmd/tool/main_test.go", `package main
import "flag"
var _ = flag.String("testonly", "", "")
`)
	defined, err := DefinedFlags(root, "cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"data", "dry-run", "meta"} {
		if !defined[want] {
			t.Errorf("flag %q not collected: %v", want, defined)
		}
	}
	if defined["testonly"] {
		t.Errorf("test-file flag collected: %v", defined)
	}
}

func TestFlags(t *testing.T) {
	root := t.TempDir()
	write(t, root, "DOC.md", strings.Join([]string{
		"Use `-data file.ttl` and `tool -dry-run` together.",
		"Run `go test -race -count=1` first.",
		"The `-vanished` flag is long gone.",
		"Headers like `X-Epoch` and spans like `a - b` are not flags.",
		"```",
		"curl -s http://x/   # shell flags in fences are not checked",
		"```",
	}, "\n"))
	defined := map[string]bool{"data": true, "dry-run": true}
	got := Flags(root, []string{"DOC.md"}, defined)
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(got), messages(got))
	}
	if got[0].Line != 3 || !strings.Contains(got[0].Message, "-vanished") {
		t.Errorf("finding = %s, want line 3 about -vanished", got[0])
	}
}

func TestDefinedSubcommands(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/tool/main.go", `package main
import "os"
func main() {
	switch os.Args[1] {
	case "fragment":
	case "schema-diff":
	case "-h", "--help", "help":
	}
}
`)
	write(t, root, "cmd/tool/main_test.go", `package main
// case "ghost": in a test file must not count
`)
	write(t, root, "cmd/flat/main.go", `package main
func main() {} // no dispatch switch: flat commands are exempt
`)
	defined, err := DefinedSubcommands(root, "cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fragment", "schema-diff", "help"} {
		if !defined["tool"][want] {
			t.Errorf("subcommand %q not collected: %v", want, defined)
		}
	}
	if defined["tool"]["ghost"] {
		t.Errorf("test-file case arm collected: %v", defined)
	}
	if _, ok := defined["flat"]; ok {
		t.Errorf("command without dispatch switch should be omitted: %v", defined)
	}
}

func TestSubcommands(t *testing.T) {
	root := t.TempDir()
	write(t, root, "DOC.md", strings.Join([]string{
		"Run `tool fragment -data x.ttl` or `./cmd/tool schema-diff a b`.",
		"The `tool shcema-diff` typo must be flagged.",
		"Prose like tool fragment outside a span is ignored.",
		"A flat command's operands are fine: `flat anything.ttl`.",
		"```",
		"tool vanished   # fences are not checked",
		"```",
	}, "\n"))
	defined := map[string]map[string]bool{
		"tool": {"fragment": true, "schema-diff": true},
	}
	got := Subcommands(root, []string{"DOC.md"}, defined)
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(got), messages(got))
	}
	if got[0].Line != 2 || !strings.Contains(got[0].Message, "shcema-diff") {
		t.Errorf("finding = %s, want line 2 about shcema-diff", got[0])
	}
}

func TestDefinedMetrics(t *testing.T) {
	root := t.TempDir()
	write(t, root, "srv/metrics.go", `package srv
const mHits = "fragserver_cache_hits_total"
var _ = reg.Gauge(`+"`runtime_goroutines`"+`, "Live goroutines, see fragserver_cache_hits_total.")
// "fragserver_commented_out" in a comment is not a registration.
var _ = "fragserver_" + "joined"
`)
	write(t, root, "srv/metrics_test.go", `package srv
var _ = "fragserver_test_only"
`)
	write(t, root, "other/metrics.go", `package other
var _ = "go_threads"
`)
	defined, err := DefinedMetrics(root, "srv", "other")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"fragserver_cache_hits_total": true, "runtime_goroutines": true, "go_threads": true}
	if len(defined) != len(want) {
		t.Fatalf("defined = %v, want %v", defined, want)
	}
	for name := range want {
		if !defined[name] {
			t.Errorf("family %s not collected: %v", name, defined)
		}
	}
}

func TestMetrics(t *testing.T) {
	root := t.TempDir()
	write(t, root, "OPS.md", strings.Join([]string{
		"# Ops",
		"| `fragserver_outside_catalog` | counter | Not in the catalog section. |",
		"## Metric catalog",
		"### Cache",
		"| Name | Type | Meaning |",
		"|---|---|---|",
		"| `fragserver_cache_hits_total` | counter | Also mentions `fragserver_stale_total`. |",
		"| `fragserver_stale_total` | counter | Outlived its registration. |",
		"| `runtime_goroutines` | gauge | Live goroutines. |",
		"## Useful queries",
		"| `fragserver_after_catalog` | counter | Past the section end. |",
	}, "\n"))
	defined := map[string]bool{
		"fragserver_cache_hits_total": true,
		"runtime_goroutines":          true,
		"fragserver_undocumented":     true,
	}
	got := Metrics(root, "OPS.md", defined)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(got), messages(got))
	}
	if got[0].Line != 8 || !strings.Contains(got[0].Message, "fragserver_stale_total") {
		t.Errorf("finding = %s, want line 8 about fragserver_stale_total", got[0])
	}
	if got[1].Line != 3 || !strings.Contains(got[1].Message, "fragserver_undocumented") {
		t.Errorf("finding = %s, want line 3 about fragserver_undocumented", got[1])
	}
	if got := Metrics(root, "OPS.md", map[string]bool{}); len(got) != 3 {
		t.Errorf("every catalog row is unregistered with nothing defined; got:\n%s", messages(got))
	}
	write(t, root, "BARE.md", "# No catalog here\n")
	if got := Metrics(root, "BARE.md", defined); len(got) != 1 || !strings.Contains(got[0].Message, "Metric catalog") {
		t.Errorf("missing catalog section: %s", messages(got))
	}
}

// TestRepoDocsClean lints this repository's actual documentation — the
// same invocation `make docs-check` gates on — so a broken link or a
// stale flag reference fails `go test` too, with positions.
func TestRepoDocsClean(t *testing.T) {
	root := filepath.Join("..", "..")
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, rel)
	}
	defined, err := DefinedFlags(root, "cmd")
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no flags found under cmd/ — scan is broken")
	}
	subs, err := DefinedSubcommands(root, "cmd")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs["shaclfrag"]) == 0 {
		t.Fatal("no shaclfrag subcommands found under cmd/ — scan is broken")
	}
	metrics, err := DefinedMetrics(root, "internal/fragserver", "internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if !metrics["fragserver_requests_total"] || !metrics["runtime_goroutines"] {
		t.Fatal("fragserver/runtime metric families not found — scan is broken")
	}
	findings := append(Links(root, files), Flags(root, files, defined)...)
	findings = append(findings, Subcommands(root, files, subs)...)
	findings = append(findings, Metrics(root, "docs/OPERATIONS.md", metrics)...)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
