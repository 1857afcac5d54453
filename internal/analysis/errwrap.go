package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// ErrwrapPackages are the classified layers: the packages whose failures
// the mod facade classifies through %w sentinels (mod.ErrBadInstance,
// ErrInstanceTooLarge, ErrCapacity, ErrBadConfig, ...), so errors.Is
// answers identically whether an error crossed the facade or came from
// the layer directly.  In these packages every constructed error must
// wrap a sentinel; the shared leaf sentinels live in internal/moderr.
var ErrwrapPackages = map[string]bool{
	"repro/internal/serve":       true,
	"repro/internal/live":        true,
	"repro/internal/multiobject": true,
	"repro/internal/offline":     true,
	"repro/internal/moderr":      true,
	"repro/internal/store":       true,
	"repro/mod":                  true,
}

// Errwrap guards the facade's error taxonomy.  In classified packages
// (ErrwrapPackages) a fmt.Errorf must carry %w — an error that classifies
// a failure without wrapping a sentinel is invisible to errors.Is — and
// errors.New may only declare package-level sentinels, never construct a
// failure inside a function.  Everywhere in the library trees, passing an
// error value to fmt.Errorf under %v/%s instead of %w severs the chain
// and is flagged.
var Errwrap = &Analyzer{
	Name: "errwrap",
	Doc: "classified packages wrap failures in %w sentinels: no naked fmt.Errorf, no in-function " +
		"errors.New; and no package may flatten an error chain by printing an err under %v",
	Run: runErrwrap,
}

func runErrwrap(pass *Pass) {
	classified := ErrwrapPackages[pass.Pkg.Path]
	library := classified || strings.HasPrefix(pass.Pkg.Path, "repro/internal/")
	if !library {
		return
	}
	for _, f := range pass.Pkg.Files {
		if IsTestFile(f) {
			continue
		}
		imports := Imports(f.AST)

		// errors.New outside a package-level var declaration.
		if classified {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if path, fn, ok := calleePkg(imports, call); ok && path == "errors" && fn == "New" {
						pass.Reportf(call.Pos(), "errors.New constructs an unclassifiable failure; wrap a sentinel with fmt.Errorf(\"%%w: ...\") instead")
					}
					return true
				})
			}
		}

		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, fn, ok := calleePkg(imports, call)
			if !ok || path != "fmt" || fn != "Errorf" || len(call.Args) == 0 {
				return true
			}
			format, constant := constString(call.Args[0])
			if !constant {
				return true // dynamic format: out of scope for a syntactic pass
			}
			wraps := strings.Contains(format, "%w")
			if wraps {
				return true
			}
			if classified {
				pass.Reportf(call.Pos(), "fmt.Errorf without %%w in classified package %s: wrap a moderr/package sentinel so errors.Is can classify the failure", pass.Pkg.Path)
				return true
			}
			for _, arg := range call.Args[1:] {
				if looksLikeErr(arg) {
					pass.Reportf(call.Pos(), "error value passed to fmt.Errorf under a non-%%w verb flattens the chain; use %%w")
					return true
				}
			}
			return true
		})
	}
}

// constString evaluates a compile-time-constant string expression
// (literals and concatenations of literals).
func constString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, okL := constString(e.X)
		r, okR := constString(e.Y)
		return l + r, okL && okR
	case *ast.ParenExpr:
		return constString(e.X)
	}
	return "", false
}

// looksLikeErr reports whether an expression is, by the repository's
// naming conventions, an error value: the identifier err (or *Err/err*
// variants) or a call/selector of Err.
func looksLikeErr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		n := e.Name
		return n == "err" || strings.HasSuffix(n, "Err") || strings.HasSuffix(n, "err") ||
			strings.HasPrefix(n, "err") || strings.HasPrefix(n, "Err")
	case *ast.SelectorExpr:
		return looksLikeErr(e.Sel)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Err" || sel.Sel.Name == "Unwrap"
		}
	}
	return false
}
