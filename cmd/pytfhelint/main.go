// Command pytfhelint runs the PyTFHE static-analysis suite (internal/lint)
// over the module:
//
//	pytfhelint ./...          # analyze the module containing the cwd
//	pytfhelint /path/to/mod   # analyze the module at that root
//	pytfhelint -list          # show the analyzers and exit
//
// The suite type-checks every package with only the standard library and
// reports crypto-safety and concurrency-hygiene defects with five
// analyzers: insecure-rand, discarded-error, locked-bootstrap,
// leaked-ciphertext and unsynced-exec-state (DESIGN.md §8 names the bug
// planted in the tree that each one reports). The analyzers find what
// they guard through //pytfhe: directives in the doc comments of the
// guarded declarations; a malformed or misplaced directive
// (pytfhe-directive) and a //lint:ignore that names no analyzer or
// suppresses nothing (ignore-directive) are findings too. Exit status is
// 0 when no findings survive, 1 when findings are reported, 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pytfhe/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pytfhelint [-list] [./... | <module-root>]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name(), a.Doc())
		}
		return
	}

	root, err := resolveRoot(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "pytfhelint: %v\n", err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pytfhelint: %v\n", err)
		os.Exit(2)
	}
	findings := lint.Run(mod, lint.Analyzers())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pytfhelint: %d finding(s) in %s\n", len(findings), mod.Path)
		os.Exit(1)
	}
	fmt.Printf("pytfhelint: %s clean (%d packages, %d analyzers)\n",
		mod.Path, len(mod.Packages), len(lint.Analyzers()))
}

// resolveRoot maps the argument list to a module root: no argument or the
// conventional "./..." analyzes the module containing the working
// directory (walking up to the nearest go.mod); a path argument is used
// directly.
func resolveRoot(args []string) (string, error) {
	start := "."
	if len(args) > 1 {
		return "", fmt.Errorf("at most one target, got %d", len(args))
	}
	if len(args) == 1 && args[0] != "./..." && args[0] != "..." {
		start = filepath.Clean(args[0])
	}
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", start)
		}
		dir = parent
	}
}
