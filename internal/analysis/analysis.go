// Package analysis is the repository's static-analysis framework: a
// self-contained, dependency-free subset of the golang.org/x/tools
// go/analysis API (Analyzer, Pass, Diagnostic) plus the shared
// suppression-comment machinery every fpcc analyzer uses.
//
// The six analyzers built on it (walltime, maprange, seedflow,
// obsgate, sharedwrite, innergrant — one package each under
// internal/analysis/)
// encode the determinism and zero-overhead contracts the rest of the
// repository is built on; cmd/fpccvet bundles them into a vet tool
// runnable standalone or as `go vet -vettool=$(which fpccvet) ./...`.
//
// The framework is intentionally a subset: analyzers are pure
// functions of one type-checked package (no cross-package facts, no
// suggested fixes), which is all the fpcc contracts need and keeps
// the whole suite buildable offline with the standard library alone.
//
// # Suppressions
//
// A finding is suppressed by a comment on the same line (or the line
// directly above) of the form
//
//	//fpcc:<token> -- <justification>
//
// where <token> is the analyzer's suppression token (its name, except
// walltime which uses the historical "wallclock") and the
// justification is mandatory: a bare //fpcc:<token> does not suppress
// and is itself reported, so every exception in the tree carries its
// reason next to it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check: a name, a documentation
// string, and a Run function applied to one type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and testdata
	// directories. It must be a valid identifier.
	Name string
	// Doc is the analyzer's documentation: first line a one-sentence
	// summary, then the contract it enforces.
	Doc string
	// Suppress is the //fpcc:<token> suppression token; empty means
	// Name.
	Suppress string
	// Run performs the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// Token returns the analyzer's suppression token.
func (a *Analyzer) Token() string {
	if a.Suppress != "" {
		return a.Suppress
	}
	return a.Name
}

// Pass is the input to one analyzer run: a single parsed and
// type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path() is the canonical
	// import path the analyzers' package allowlists match against.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// report receives diagnostics (set by the driver; filtered for
	// suppressions).
	report func(Diagnostic)
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The driver
// stamps the reporting analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Package is a loaded, type-checked package as produced by the load
// package or the unitchecker config path — the unit every analyzer
// runs over.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// RunPackage applies the analyzers to pkg and returns the surviving
// diagnostics in file/line order: suppressed findings are dropped,
// malformed suppression comments (missing the mandatory "-- reason")
// and unknown //fpcc: tokens are reported as findings themselves.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := scanSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic

	// Malformed or unknown suppression comments are findings in their
	// own right, independent of which analyzers run: a suppression
	// that silently fails to suppress (or suppresses nothing known)
	// must not pass the gate.
	for _, c := range sup.malformed {
		out = append(out, Diagnostic{
			Pos:      c.pos,
			Analyzer: "fpccvet",
			Message: fmt.Sprintf("fpcc:%s suppression requires a justification: //fpcc:%s -- <why>",
				c.token, c.token),
		})
	}
	for _, c := range sup.unknown {
		out = append(out, Diagnostic{
			Pos:      c.pos,
			Analyzer: "fpccvet",
			Message:  fmt.Sprintf("unknown fpcc suppression token %q (known: %v)", c.token, KnownTokens),
		})
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		token := a.Token()
		pass.report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if sup.covers(token, pkg.Fset.Position(d.Pos)) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// WithStack walks the AST rooted at root, calling fn with each node
// and the stack of its ancestors (outermost first, root's ancestors
// empty). Returning false skips the node's children.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// IsTestFile reports whether the file's name ends in _test.go. The
// fpcc contracts govern shipped code; tests may freely use wall
// clocks, maps, and local randomness.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Package).Filename
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
