package lint

import (
	"strconv"
	"strings"
)

// DirectiveCheck is the pseudo-check name under which malformed or
// stale //lint:allow directives are reported. Directive findings are
// not themselves suppressible.
const DirectiveCheck = "directive"

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:allow"

// Directive is one parsed //lint:allow comment.
type Directive struct {
	File   string // module-relative path
	Line   int
	Check  string
	Reason string
	// Err is a non-empty parse/validation problem ("missing reason",
	// "unknown check ..."); invalid directives never suppress anything.
	Err string
	// used is set when the directive suppressed at least one finding.
	used bool
}

// parseDirective splits the text of a single comment. ok is false when
// the comment is not a lint directive at all. For lint directives with
// problems, ok is true and d.Err describes the problem.
func parseDirective(text string, known map[string]bool) (d Directive, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := text[len(directivePrefix):]
	// Require "//lint:allow " (or exactly the bare prefix): reject
	// look-alikes such as //lint:allowed.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return Directive{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Directive{Err: "missing check name and reason"}, true
	}
	d.Check = fields[0]
	d.Reason = strings.Join(fields[1:], " ")
	switch {
	case !known[d.Check]:
		d.Err = "unknown check " + strconv.Quote(d.Check)
	case d.Reason == "":
		d.Err = "missing reason (write //lint:allow " + d.Check + " <why this is safe>)"
	}
	return d, true
}

// collectDirectives scans every comment in the module (non-test and
// test files alike) for //lint:allow directives.
func collectDirectives(m *Module, known map[string]bool) []*Directive {
	var out []*Directive
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.AllFiles() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseDirective(c.Text, known)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					d.File = m.relPath(pos.Filename)
					d.Line = pos.Line
					dd := d
					out = append(out, &dd)
				}
			}
		}
	}
	return out
}

// applyDirectives filters diags through the directives: a valid
// directive suppresses findings of its check in the same file on its
// own line or the line immediately below. Invalid directives and valid
// directives that suppressed nothing (stale allows) are appended as
// DirectiveCheck findings.
func applyDirectives(diags []Diagnostic, dirs []*Directive) []Diagnostic {
	kept := diags[:0:0]
	for _, diag := range diags {
		suppressed := false
		for _, d := range dirs {
			if d.Err != "" || d.Check != diag.Check || d.File != diag.File {
				continue
			}
			if diag.Line == d.Line || diag.Line == d.Line+1 {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}
	for _, d := range dirs {
		switch {
		case d.Err != "":
			kept = append(kept, Diagnostic{
				File: d.File, Line: d.Line, Col: 1,
				Check:   DirectiveCheck,
				Message: "malformed //lint:allow: " + d.Err,
			})
		case !d.used:
			kept = append(kept, Diagnostic{
				File: d.File, Line: d.Line, Col: 1,
				Check:   DirectiveCheck,
				Message: "stale //lint:allow " + d.Check + ": no matching finding on this or the next line",
			})
		}
	}
	return kept
}
