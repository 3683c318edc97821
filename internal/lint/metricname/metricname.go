// Package metricname statically validates every metric name passed to
// an internal/metrics emission site (Registry.Add / Observe / Point).
//
// The runtime gate TestMetricNamespaceDocumented only sees names a
// particular simulation happens to emit; this analyzer sees them all at
// compile time. Each name argument is resolved to a constant string —
// or at least a constant prefix — through string concatenation chains,
// fmt.Sprintf constant formats, and single-assignment locals. The
// resolved text must fit the namespace grammar
//
//	segment(/segment)+   with   segment = [a-z0-9_-]+
//
// and its top-level segment must have a section in
// docs/OBSERVABILITY.md (matched the same way the runtime gate does:
// the document must contain `<prefix>/` in backquotes). Names the
// analyzer cannot resolve to any constant prefix are themselves
// diagnostics: dynamic names defeat both checks and the doc.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"starnuma/internal/lint/analysis"
)

// metricsPkg is the package whose Registry methods are emission sites.
const metricsPkg = "starnuma/internal/metrics"

// nameMethods maps emission-method names to the index of the name
// argument.
var nameMethods = map[string]int{
	"Add":     0,
	"Observe": 0,
	"Point":   0,
}

var nameRE = regexp.MustCompile(`^[a-z0-9_-]+(/[a-z0-9_-]+)+$`)

// prefixRE constrains a partially-resolved prefix: same alphabet, no
// leading separator, no empty segment.
var prefixRE = regexp.MustCompile(`^[a-z0-9_-][a-z0-9_/-]*$`)

// DocPath is the observability doc the namespace check reads; empty
// means docs/OBSERVABILITY.md beside the analyzed module's go.mod.
var DocPath string

// Analyzer is the metricname pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "validate metric names at internal/metrics emission sites\n\n" +
		"Metric names must follow the namespace grammar seg(/seg)+ with\n" +
		"segments [a-z0-9_-]+, and the top-level namespace must be documented\n" +
		"in docs/OBSERVABILITY.md. Names are resolved statically; a name with\n" +
		"no resolvable constant prefix is an error.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	doc, docName, err := loadDoc(pass)
	if err != nil {
		return nil, err
	}
	r := &resolver{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			argIdx, ok := emissionSite(pass, call)
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			arg := call.Args[argIdx]
			name, complete, resolved := r.resolve(arg, 0)
			switch {
			case !resolved:
				pass.Reportf(arg.Pos(), "metric name cannot be statically resolved to a constant prefix; build names from constant strings so the grammar and doc checks can see them")
			case complete && !nameRE.MatchString(name):
				pass.Reportf(arg.Pos(), "metric name %q does not match the namespace grammar seg(/seg)+ with segments [a-z0-9_-]+", name)
			case !complete && !prefixRE.MatchString(name):
				pass.Reportf(arg.Pos(), "metric name prefix %q is malformed: segments are [a-z0-9_-]+ separated by single slashes", name)
			default:
				top, _, ok := strings.Cut(name, "/")
				if !ok && !complete {
					return true // prefix too short to name its namespace; the runtime gate still covers it
				}
				if doc != "" && !strings.Contains(doc, "`"+top+"/`") {
					pass.Reportf(arg.Pos(), "metric namespace %q is undocumented: add a `%s/` section to %s", top, top, docName)
				}
			}
			return true
		})
	}
	return nil, nil
}

// emissionSite reports whether call invokes one of the Registry
// emission methods, returning the index of its name argument.
func emissionSite(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	idx, ok := nameMethods[sel.Sel.Name]
	if !ok {
		return 0, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return 0, false
	}
	if named.Obj().Pkg().Path() != metricsPkg || named.Obj().Name() != "Registry" {
		return 0, false
	}
	return idx, true
}

// resolver resolves name expressions to constant text, using a lazily
// built index of single-assignment locals.
type resolver struct {
	pass    *analysis.Pass
	assigns map[types.Object][]ast.Expr // every RHS ever assigned to the object (nil entry: unresolvable form)
}

// resolve returns the statically-known text of e. complete reports
// whether the text is the whole name (false: a prefix); ok reports
// whether anything was resolved at all.
func (r *resolver) resolve(e ast.Expr, depth int) (text string, complete, ok bool) {
	if depth > 8 {
		return "", false, false
	}
	e = ast.Unparen(e)
	if tv, found := r.pass.TypesInfo.Types[e]; found && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true, true
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false, false
		}
		l, lComplete, lOK := r.resolve(x.X, depth+1)
		if !lOK {
			return "", false, false
		}
		if !lComplete {
			return l, false, true
		}
		rt, rComplete, rOK := r.resolve(x.Y, depth+1)
		if !rOK {
			return l, false, true
		}
		return l + rt, rComplete, true
	case *ast.CallExpr:
		if format, ok := sprintfFormat(r.pass, x); ok {
			if i := strings.IndexByte(format, '%'); i >= 0 {
				return format[:i], false, true
			}
			return format, true, true
		}
		return "", false, false
	case *ast.Ident:
		obj := r.pass.TypesInfo.ObjectOf(x)
		if _, isVar := obj.(*types.Var); !isVar {
			return "", false, false
		}
		rhss, found := r.assignIndex()[obj]
		if !found || len(rhss) != 1 || rhss[0] == nil {
			return "", false, false
		}
		return r.resolve(rhss[0], depth+1)
	}
	return "", false, false
}

// sprintfFormat returns the constant format string of a fmt.Sprintf
// call.
func sprintfFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Sprintf" {
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	tv := pass.TypesInfo.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// assignIndex maps each local variable to every right-hand side ever
// assigned to it; a nil entry marks a form resolve cannot follow (range
// variables, +=, multi-value assignments).
func (r *resolver) assignIndex() map[types.Object][]ast.Expr {
	if r.assigns != nil {
		return r.assigns
	}
	r.assigns = make(map[types.Object][]ast.Expr)
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := r.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		r.assigns[obj] = append(r.assigns[obj], rhs)
	}
	for _, f := range r.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				simple := (st.Tok == token.DEFINE || st.Tok == token.ASSIGN) && len(st.Lhs) == len(st.Rhs)
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if simple {
						record(id, st.Rhs[i])
					} else {
						record(id, nil)
					}
				}
			case *ast.ValueSpec:
				for i, id := range st.Names {
					if i < len(st.Values) && len(st.Values) == len(st.Names) {
						record(id, st.Values[i])
					} else if len(st.Values) > 0 {
						record(id, nil)
					}
				}
			case *ast.RangeStmt:
				for _, x := range []ast.Expr{st.Key, st.Value} {
					if id, ok := x.(*ast.Ident); ok {
						record(id, nil)
					}
				}
			}
			return true
		})
	}
	return r.assigns
}

// loadDoc returns the observability doc's text and display name. With
// no -doc flag it walks up from the package's source to the module root
// and reads docs/OBSERVABILITY.md; a missing doc disables only the
// documentation check (grammar still applies), so fixtures and
// embedded uses stay self-contained.
func loadDoc(pass *analysis.Pass) (text, name string, err error) {
	if DocPath != "" {
		data, err := os.ReadFile(DocPath)
		if err != nil {
			return "", "", err
		}
		return string(data), filepath.ToSlash(DocPath), nil
	}
	if len(pass.Files) == 0 {
		return "", "", nil
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			data, err := os.ReadFile(filepath.Join(dir, "docs", "OBSERVABILITY.md"))
			if err != nil {
				return "", "", nil
			}
			return string(data), "docs/OBSERVABILITY.md", nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", nil
		}
		dir = parent
	}
}
