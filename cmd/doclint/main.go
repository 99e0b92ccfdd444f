// Command doclint checks the repository's markdown documentation
// against the code: intra-repo links (including #heading anchors) must
// resolve, every `-flag` documented in an inline code span must be
// defined by some command under cmd/, and every `cmd sub` invocation in
// a code span must name a subcommand that command's dispatch switch
// accepts, and the metric catalog in docs/OPERATIONS.md must list
// exactly the metric families internal/fragserver and internal/obs
// register. It is the engine behind `make docs-check` and exits 1 when
// any finding is reported.
//
// Usage:
//
//	doclint [-root dir] [files ...]
//
// With no file arguments it lints README.md, DESIGN.md, EXPERIMENTS.md
// and docs/*.md under the root (default: the current directory).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"shaclfrag/internal/doclint"
)

// operationsGuide holds the metric catalog: when it is among the linted
// files, its catalog is checked against the families the server and its
// runtime telemetry register.
const operationsGuide = "docs/OPERATIONS.md"

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		for _, f := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
			if _, err := os.Stat(filepath.Join(*root, f)); err == nil {
				files = append(files, f)
			}
		}
		docs, err := filepath.Glob(filepath.Join(*root, "docs", "*.md"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		for _, d := range docs {
			rel, err := filepath.Rel(*root, d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "doclint:", err)
				os.Exit(1)
			}
			files = append(files, rel)
		}
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "doclint: no markdown files to lint")
		os.Exit(1)
	}

	defined, err := doclint.DefinedFlags(*root, "cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	subs, err := doclint.DefinedSubcommands(*root, "cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	findings := append(doclint.Links(*root, files), doclint.Flags(*root, files, defined)...)
	findings = append(findings, doclint.Subcommands(*root, files, subs)...)
	if slices.Contains(files, filepath.FromSlash(operationsGuide)) {
		metrics, err := doclint.DefinedMetrics(*root, "internal/fragserver", "internal/obs")
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(1)
		}
		findings = append(findings, doclint.Metrics(*root, operationsGuide, metrics)...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s) in %d file(s)\n", len(findings), len(files))
		os.Exit(1)
	}
	fmt.Printf("doclint: %d file(s) clean\n", len(files))
}
