// Command fpccvet is the repository's determinism-and-contracts lint
// suite: six analyzers (walltime, maprange, seedflow, obsgate,
// sharedwrite, innergrant) encoding the standing invariants every
// engine is built on, bundled as a vet tool.
//
// It runs two ways:
//
//	fpccvet ./...                      # standalone over the module
//	go vet -vettool=$(which fpccvet) ./...   # as the vet tool
//
// The second form speaks cmd/go's vet-tool protocol (-V=full
// handshake, -flags, then one JSON config file per package with
// export data for dependencies), so findings integrate with go vet's
// caching and package selection; it is the form CI gates on.
// Standalone mode type-checks the module from source (no network, no
// build cache) and is the form the end-to-end tests drive.
//
// Exit status: 0 clean, 1 operational error, 2 findings.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fpcc/internal/analysis"
	"fpcc/internal/analysis/innergrant"
	"fpcc/internal/analysis/load"
	"fpcc/internal/analysis/maprange"
	"fpcc/internal/analysis/obsgate"
	"fpcc/internal/analysis/seedflow"
	"fpcc/internal/analysis/sharedwrite"
	"fpcc/internal/analysis/walltime"
)

// analyzers is the fpcc lint suite.
var analyzers = []*analysis.Analyzer{
	walltime.Analyzer,
	maprange.Analyzer,
	seedflow.Analyzer,
	obsgate.Analyzer,
	sharedwrite.Analyzer,
	innergrant.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			return printVersion(stdout, stderr)
		case a == "-flags" || a == "--flags":
			// The go command queries supported analyzer flags as JSON;
			// the suite is deliberately knobless — the contracts are
			// not optional.
			fmt.Fprintln(stdout, "[]")
			return 0
		case a == "-h" || a == "-help" || a == "--help":
			usage(stderr)
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnitchecker(args[0], stderr)
	}
	return runStandalone(args, stdout, stderr)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `fpccvet: fpcc determinism-and-contracts lint suite

usage:
  fpccvet [dir ...]                        standalone (default ./...)
  go vet -vettool=$(which fpccvet) ./...   as the vet tool

analyzers:`)
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-12s %s (suppress: //fpcc:%s -- <why>)\n", a.Name, a.Doc, a.Token())
	}
}

// printVersion implements the -V=full handshake: cmd/go derives the
// vet cache key from the reported build ID, so it must change
// whenever the binary does — hash the executable itself.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "fpccvet version devel buildID=%x\n", h.Sum(nil))
	return 0
}

// runStandalone type-checks the module from source and analyzes the
// requested package directories (default: every package).
func runStandalone(args []string, stdout, stderr io.Writer) int {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "fpccvet:", err)
		return 1
	}
	ld, err := load.New(root)
	if err != nil {
		fmt.Fprintln(stderr, "fpccvet:", err)
		return 1
	}
	paths, err := selectPackages(ld, root, args)
	if err != nil {
		fmt.Fprintln(stderr, "fpccvet:", err)
		return 1
	}
	findings := 0
	for _, path := range paths {
		pkg, err := ld.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "fpccvet: %v\n", err)
			return 1
		}
		diags, err := analysis.RunPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "fpccvet: %v\n", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "fpccvet: %d finding(s)\n", findings)
		return 2
	}
	return 0
}

// selectPackages maps command-line arguments to module package paths:
// no arguments or "./..." means every package; other arguments are
// directories relative to the current directory.
func selectPackages(ld *load.Loader, root string, args []string) ([]string, error) {
	if len(args) == 0 || (len(args) == 1 && (args[0] == "./..." || args[0] == "...")) {
		return ld.Dirs()
	}
	var out []string
	for _, a := range args {
		abs, err := filepath.Abs(strings.TrimSuffix(a, "/..."))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside the module rooted at %s", a, root)
		}
		if strings.HasSuffix(a, "/...") {
			sub, err := ld.Dirs()
			if err != nil {
				return nil, err
			}
			prefix := ld.Module
			if rel != "." {
				prefix = ld.Module + "/" + filepath.ToSlash(rel)
			}
			for _, p := range sub {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					out = append(out, p)
				}
			}
			continue
		}
		if rel == "." {
			out = append(out, ld.Module)
		} else {
			out = append(out, ld.Module+"/"+filepath.ToSlash(rel))
		}
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
