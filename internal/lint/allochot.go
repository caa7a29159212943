package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// allocHotPrefix marks a function whose steady state must not allocate.
const allocHotPrefix = "//alloc:hot"

// AnalyzerAllocDiscipline validates the //alloc:hot annotation layer
// that feeds the static escape-analysis gate (`make lint-alloc`):
//
//	//alloc:hot <why this function must stay allocation-free>
//
// The annotation goes in the doc comment of a production function whose
// steady state must not allocate (the PR 5/7 zero-alloc kernels: DSP
// block kernels, pooled slot-sim acquire/release, inline fleet jobs).
// The gate parses `go build -gcflags=-m` escape diagnostics and fails
// when a new heap escape appears inside an annotated function's line
// range, so the compiler — not a benchmark that happens to run — holds
// the zero-alloc line.
//
// The analyzer enforces the grammar statically: an annotation must sit
// in a function's doc comment (floating annotations silently gate
// nothing), must carry a note, and must not appear in _test.go files
// (the gate only compiles production packages). It also flags `go`
// statements inside annotated functions: spawning a goroutine allocates
// and schedules, which contradicts the hot-path contract.
var AnalyzerAllocDiscipline = &Analyzer{
	Name: "alloc-discipline",
	Doc:  "validate //alloc:hot annotations (doc-comment placement, note required, no test files, no go statements in hot functions)",
	Run:  runAllocDiscipline,
}

// allocHotNote extracts the note of an //alloc:hot comment line; ok is
// false when the comment is not an alloc:hot annotation at all.
func allocHotNote(text string) (note string, ok bool) {
	if !strings.HasPrefix(text, allocHotPrefix) {
		return "", false
	}
	rest := text[len(allocHotPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // look-alike such as //alloc:hotter
	}
	return strings.TrimSpace(rest), true
}

// docFuncs maps each doc comment group in f to its function declaration.
func docFuncs(f *ast.File) map[*ast.CommentGroup]*ast.FuncDecl {
	m := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			m[fd.Doc] = fd
		}
	}
	return m
}

func runAllocDiscipline(p *Pass) {
	for _, f := range p.Pkg.Files {
		byDoc := docFuncs(f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				note, ok := allocHotNote(c.Text)
				if !ok {
					continue
				}
				fd := byDoc[cg]
				switch {
				case fd == nil:
					p.Reportf(c.Pos(), "floating //alloc:hot: the annotation must be part of a function's doc comment, otherwise the escape gate covers nothing")
				case note == "":
					p.Reportf(c.Pos(), "//alloc:hot on %s is missing its note (write //alloc:hot <why this function must stay allocation-free>)", fd.Name.Name)
				}
			}
		}
		// No go statements inside annotated hot functions.
		for doc, fd := range byDoc {
			if !docHasAllocHot(doc) || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					p.Reportf(gs.Pos(), "go statement inside //alloc:hot function %s: spawning a goroutine allocates; move the concurrency out of the hot path", fd.Name.Name)
				}
				return true
			})
		}
	}
	for _, f := range p.Pkg.TestFiles {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := allocHotNote(c.Text); ok {
					p.Reportf(c.Pos(), "//alloc:hot in a test file: the escape gate compiles production packages only, so this annotation gates nothing")
				}
			}
		}
	}
}

func docHasAllocHot(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if _, ok := allocHotNote(c.Text); ok {
			return true
		}
	}
	return false
}

// AllocHotFunc is one annotated function, exported for the escape gate.
type AllocHotFunc struct {
	Pkg       string // import path
	File      string // module-relative path
	Func      string // "Func" or "Recv.Method"
	StartLine int
	EndLine   int
	Note      string
}

// AllocManifest collects every //alloc:hot annotated production
// function in the module, sorted by file then start line. The escape
// gate maps compiler escape diagnostics into these line ranges.
func AllocManifest(m *Module) []AllocHotFunc {
	var out []AllocHotFunc
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for doc, fd := range docFuncs(f) {
				note := ""
				tagged := false
				for _, c := range doc.List {
					if n, ok := allocHotNote(c.Text); ok {
						tagged, note = true, n
					}
				}
				if !tagged {
					continue
				}
				start := m.Fset.Position(fd.Pos())
				end := m.Fset.Position(fd.End())
				name := fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					name = recvTypeName(fd.Recv.List[0].Type) + "." + name
				}
				out = append(out, AllocHotFunc{
					Pkg:       pkg.Path,
					File:      m.relPath(start.Filename),
					Func:      name,
					StartLine: start.Line,
					EndLine:   end.Line,
					Note:      note,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].StartLine < out[j].StartLine
	})
	return out
}

// recvTypeName extracts the receiver's base type name.
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}
