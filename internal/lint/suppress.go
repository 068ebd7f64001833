package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// directive is one parsed //rowlint:ignore comment.
type directive struct {
	file     string
	line     int // line the directive applies to
	analyzer string
	reason   string
}

// directiveSet indexes directives by (file, line, analyzer).
type directiveSet map[string]*directive

func directiveKey(file string, line int, analyzer string) string {
	return file + "\x00" + strconv.Itoa(line) + "\x00" + analyzer
}

func (s directiveSet) match(f Finding) *directive {
	return s[directiveKey(f.Pos.Filename, f.Pos.Line, f.Analyzer)]
}

// noallocMarker is the doc-comment annotation opting a function into
// the noalloc analyzer.
const noallocMarker = "//rowlint:noalloc"

// ignorePrefix introduces a suppression directive.
const ignorePrefix = "//rowlint:ignore"

// parseDirectives extracts every //rowlint: directive from the
// package's comments. Malformed directives — a missing analyzer name,
// a missing reason, an unknown analyzer, or an unknown verb — are
// returned as findings under the pseudo-analyzer "rowlint": a
// suppression that silently fails to suppress (or fails to record why)
// is exactly the kind of rot the pass exists to stop.
//
// Placement: a directive on a line of its own applies to the next
// line; a directive trailing code applies to its own line.
func parseDirectives(pkg *Package) (directiveSet, []Finding) {
	set := make(directiveSet)
	var malformed []Finding
	report := func(pos token.Pos, msg string) {
		malformed = append(malformed, Finding{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: "rowlint",
			Message:  msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//rowlint:") {
					continue
				}
				if text == noallocMarker || strings.HasPrefix(text, noallocMarker+" ") {
					continue // function annotation, handled by noalloc
				}
				rest, ok := strings.CutPrefix(text, ignorePrefix)
				if !ok || rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					report(c.Pos(), "unknown rowlint directive "+firstField(text)+
						" (want //rowlint:ignore or //rowlint:noalloc)")
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "//rowlint:ignore is missing the analyzer name and reason")
					continue
				}
				name := fields[0]
				if !analyzerKnown(name) {
					report(c.Pos(), "//rowlint:ignore names unknown analyzer "+name)
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "//rowlint:ignore "+name+" is missing the mandatory reason")
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if standalone(pkg.Src[pos.Filename], pos) {
					line++
				}
				set[directiveKey(pos.Filename, line, name)] = &directive{
					file:     pos.Filename,
					line:     line,
					analyzer: name,
					reason:   strings.Join(fields[1:], " "),
				}
			}
		}
	}
	return set, malformed
}

// standalone reports whether only whitespace precedes the comment on
// its line (the directive then applies to the following line).
func standalone(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return len(strings.TrimSpace(string(src[start:pos.Offset]))) == 0
}

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return s
}

// funcHasNoallocAnnotation reports whether the declaration's doc
// comment carries //rowlint:noalloc.
func funcHasNoallocAnnotation(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == noallocMarker || strings.HasPrefix(text, noallocMarker+" ") {
			return true
		}
	}
	return false
}
