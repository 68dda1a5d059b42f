package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheck flags call statements that silently discard an error return
// value. Assigning the error to _ is accepted as an explicit, greppable
// decision; dropping it on the floor is not. A small allowlist covers
// calls whose error is unreachable in practice (in-memory writers) or
// conventionally ignored (fmt printing to the process's own stdout/stderr).
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "flags discarded error return values",
	Run:  runErrCheck,
}

// errCheckAllow lists callees (types.Func.FullName form) whose discarded
// error is acceptable everywhere.
var errCheckAllow = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,

	// Documented to always return a nil error.
	"(*bytes.Buffer).Write":          true,
	"(*bytes.Buffer).WriteByte":      true,
	"(*bytes.Buffer).WriteRune":      true,
	"(*bytes.Buffer).WriteString":    true,
	"(*strings.Builder).Write":       true,
	"(*strings.Builder).WriteByte":   true,
	"(*strings.Builder).WriteRune":   true,
	"(*strings.Builder).WriteString": true,
}

// fmtFprint names the fmt writers whose error depends on the destination.
var fmtFprint = map[string]bool{
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

func runErrCheck(pass *Pass) {
	check := func(call *ast.CallExpr) {
		if call == nil || !returnsError(pass, call) {
			return
		}
		name := calleeFullName(pass, call)
		if name == "" {
			// Calls through function values still discard errors.
			name = types.ExprString(call.Fun)
		} else {
			if errCheckAllow[name] {
				return
			}
			if fmtFprint[name] && benignWriter(pass, call) {
				return
			}
		}
		pass.Reportf(call.Pos(),
			"error returned by %s is silently discarded: check it or assign it to _", name)
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call)
				}
			case *ast.DeferStmt:
				check(n.Call)
			case *ast.GoStmt:
				check(n.Call)
			}
			return true
		})
	}
}

// returnsError reports whether the call's results include an error value.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType) ||
		(types.IsInterface(t) && types.Implements(t, errorType.Underlying().(*types.Interface)))
}

// calleeFullName resolves the called function to its qualified name
// ("fmt.Println", "(*os.File).Close"), or "" for calls through values.
func calleeFullName(pass *Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := pass.ObjectOf(id).(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// benignWriter reports whether a fmt.Fprint* destination is one where
// write errors are conventionally ignored: the process's own stdout or
// stderr, or an in-memory buffer that cannot fail.
func benignWriter(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	w := ast.Unparen(call.Args[0])
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if obj, ok := pass.ObjectOf(sel.Sel).(*types.Var); ok &&
			obj.Pkg() != nil && obj.Pkg().Path() == "os" &&
			(obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	switch types.TypeString(pass.TypeOf(w), nil) {
	case "*bytes.Buffer", "*strings.Builder":
		return true
	}
	return false
}
