package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// declKind names the kind of declaration a //pytfhe: directive goes on.
type declKind string

const (
	otherDecl   declKind = "var, const, import or grouped declaration"
	packageDecl declKind = "package clause"
	typeDecl    declKind = "type declaration"
	funcDecl    declKind = "function or method declaration"
)

// directives are the marks the analyzers read, each with the kind of
// declaration it goes on and the analyzer that reads it. DESIGN.md §8 lists
// the declarations that carry each one.
var directives = map[string]declKind{
	"cryptoroot":    packageDecl, // insecure-rand: no math/rand reachable from here
	"errorcritical": packageDecl, // discarded-error: no error dropped here
	"execlayer":     packageDecl, // unsynced-exec-state: may hold run state
	"runstate":      typeDecl,    // unsynced-exec-state: held by the exec layers only
	"singlewriter":  funcDecl,    // unsynced-exec-state: not called on a captured receiver by a goroutine
	"bootstraps":    funcDecl,    // locked-bootstrap: never called under a mutex
	"acquire":       funcDecl,    // leaked-ciphertext: returns a recycled ciphertext
	"release":       funcDecl,    // leaked-ciphertext: takes one back
}

const (
	directivePrefix   = "//pytfhe:"
	ignorePrefix      = "//lint:ignore "
	directiveAnalyzer = "pytfhe-directive"
	ignoreAnalyzer    = "ignore-directive"
)

// ignore is one //lint:ignore directive. It covers its own line (a
// trailing comment) and the next one (a comment above the statement).
type ignore struct {
	pos      token.Position
	analyzer string
}

// ignoreFor returns the ignore that covers a finding of analyzer at pos, or
// nil.
func (p *Package) ignoreFor(analyzer string, pos token.Position) *ignore {
	for _, ig := range p.ignores {
		if ig.analyzer == analyzer && ig.pos.Filename == pos.Filename &&
			(pos.Line == ig.pos.Line || pos.Line == ig.pos.Line+1) {
			return ig
		}
	}
	return nil
}

// marked reports whether the declaration of decl — a *types.Package,
// *types.TypeName or *types.Func — carries //pytfhe:name.
func (m *Module) marked(name string, decl any) bool {
	return m.marks[name][decl]
}

// scanComments reads the //pytfhe: and //lint:ignore directives of pkg in
// one pass. It records each mark against the object its declaration
// defines, and the ignores in pkg.ignores; a directive with an unknown
// name, on the wrong kind of declaration or on none, and an ignore without
// a reason, go to pkg.malformed.
func (m *Module) scanComments(pkg *Package) {
	for _, f := range pkg.Files {
		docs := declDocs(pkg, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := m.Fset.Position(c.Pos())
				if rest, ok := strings.CutPrefix(c.Text, ignorePrefix); ok {
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						pkg.malformed = append(pkg.malformed, Finding{Analyzer: ignoreAnalyzer, Pos: pos,
							Message: "lint:ignore directive needs an analyzer name and a reason"})
					} else {
						pkg.ignores = append(pkg.ignores, &ignore{pos: pos, analyzer: fields[0]})
					}
				} else if rest, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
					d, attached := docs[cg]
					if msg := m.mark(strings.TrimSpace(rest), d, attached); msg != "" {
						pkg.malformed = append(pkg.malformed,
							Finding{Analyzer: directiveAnalyzer, Pos: pos, Message: msg})
					}
				}
			}
		}
	}
}

// decl is a declaration a doc comment documents.
type decl struct {
	kind declKind
	obj  any
}

// declDocs maps every doc comment of f to the declaration it documents.
func declDocs(pkg *Package, f *ast.File) map[*ast.CommentGroup]decl {
	docs := map[*ast.CommentGroup]decl{f.Doc: {packageDecl, pkg.Types}}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			docs[d.Doc] = decl{funcDecl, pkg.Info.Defs[d.Name]}
		case *ast.GenDecl:
			docs[d.Doc] = decl{kind: otherDecl}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					t := decl{typeDecl, pkg.Info.Defs[s.Name]}
					docs[s.Doc] = t
					if !d.Lparen.IsValid() {
						docs[d.Doc] = t
					}
				case *ast.ValueSpec:
					docs[s.Doc] = decl{kind: otherDecl}
				}
			}
		}
	}
	delete(docs, nil)
	return docs
}

// mark records the directive text against d, or says why it cannot.
func (m *Module) mark(text string, d decl, attached bool) string {
	name, _, _ := strings.Cut(text, " ")
	kind, known := directives[name]
	switch {
	case !known:
		return "unknown directive //pytfhe:" + name
	case !attached:
		return "//pytfhe:" + name + " is not in the doc comment of a declaration"
	case d.kind != kind:
		return "//pytfhe:" + name + " goes on a " + string(kind) + ", not a " + string(d.kind)
	}
	if m.marks[name] == nil {
		m.marks[name] = map[any]bool{}
	}
	m.marks[name][d.obj] = true
	return ""
}
