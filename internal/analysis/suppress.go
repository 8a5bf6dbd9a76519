package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// KnownTokens lists every valid //fpcc: suppression token. The
// walltime analyzer's token is "wallclock" (the engines' sim-clock
// contract predates the analyzer and its comments were specified that
// way); every other analyzer's token is its name.
var KnownTokens = []string{"wallclock", "maprange", "seedflow", "obsgate", "sharedwrite", "innergrant"}

// suppression is one parsed //fpcc:<token> comment.
type suppression struct {
	token string
	pos   token.Pos
	file  string
	line  int
}

// suppressionIndex holds a package's parsed suppression comments.
type suppressionIndex struct {
	// ok maps token -> file -> set of lines covered (the comment's
	// own line and the line below it, so a comment can sit inline or
	// on its own line above the finding).
	ok        map[string]map[string]map[int]bool
	malformed []suppression
	unknown   []suppression
}

// covers reports whether a well-formed suppression for token covers
// the given position.
func (s *suppressionIndex) covers(token string, pos token.Position) bool {
	byFile := s.ok[token]
	if byFile == nil {
		return false
	}
	return byFile[pos.Filename][pos.Line]
}

// scanSuppressions parses every //fpcc:<token> comment in the files.
// A well-formed comment is "//fpcc:<token> -- <justification>" with a
// non-empty justification; it suppresses findings of the matching
// analyzer on its own line and the next line. Malformed and
// unknown-token comments are collected for reporting.
func scanSuppressions(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{ok: make(map[string]map[string]map[int]bool)}
	known := make(map[string]bool, len(KnownTokens))
	for _, t := range KnownTokens {
		known[t] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, found := strings.CutPrefix(c.Text, "//fpcc:")
				if !found {
					continue
				}
				tok := text
				rest := ""
				if i := strings.IndexAny(text, " \t"); i >= 0 {
					tok, rest = text[:i], text[i:]
				}
				pos := fset.Position(c.Pos())
				s := suppression{token: tok, pos: c.Pos(), file: pos.Filename, line: pos.Line}
				if !known[tok] {
					idx.unknown = append(idx.unknown, s)
					continue
				}
				just := ""
				if _, after, found := strings.Cut(rest, "--"); found {
					just = strings.TrimSpace(after)
				}
				if just == "" {
					idx.malformed = append(idx.malformed, s)
					continue
				}
				byFile := idx.ok[tok]
				if byFile == nil {
					byFile = make(map[string]map[int]bool)
					idx.ok[tok] = byFile
				}
				lines := byFile[s.file]
				if lines == nil {
					lines = make(map[int]bool)
					byFile[s.file] = lines
				}
				lines[s.line] = true
				lines[s.line+1] = true
			}
		}
	}
	return idx
}
