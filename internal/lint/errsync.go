package lint

import (
	"go/ast"
	"go/types"
)

// ErrSync flags discarded error results from Close, Sync, and Flush
// calls — plus the commit seam itself (commitMeta / saveMeta) — inside
// the durable packages. A swallowed Close after
// a buffered write is silent data loss (PR 3 fixed exactly that in
// writeBlob); a swallowed commitMeta is a mutation whose durability
// nobody checked. The rule covers bare expression statements, defer,
// and go statements. An explicit `_ = f.Close()` is allowed: the
// discard is visible and greppable, which is the point.
//
// Escape hatch: //avlint:allow-err <reason>.
var ErrSync = &Analyzer{
	Name:      "errsync",
	Directive: "err",
	Doc:       "Close/Sync/Flush/commitMeta error results must not be silently discarded on durable paths",
	Applies: func(path string) bool {
		return PathSuffix(path, "internal/core") ||
			PathSuffix(path, "internal/fsio") ||
			PathSuffix(path, "internal/server")
	},
	Run: runErrSync,
}

// errSyncMethods are the flagged method names; the call only counts
// when its type signature actually returns an error.
var errSyncMethods = map[string]bool{
	"Close": true,
	"Sync":  true,
	"Flush": true,
}

// errSyncCommitFuncs are the repo's commit-seam functions: discarding
// their error discards the outcome of a durable commit point.
var errSyncCommitFuncs = map[string]bool{
	"commitMeta": true,
	"saveMeta":   true,
}

func runErrSync(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = stmt.Call
			case *ast.GoStmt:
				call = stmt.Call
			}
			if call == nil {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if !errSyncMethods[name] && !errSyncCommitFuncs[name] {
				return true
			}
			if !callReturnsError(pass.Pkg.Info, call) {
				return true
			}
			if errSyncCommitFuncs[name] {
				pass.Reportf(call.Pos(), "%s error discarded: the metadata commit outcome decides durability and degraded-mode handling", name)
			} else {
				pass.Reportf(call.Pos(), "%s error discarded on a durable path (check it, or discard explicitly with `_ = x.%s()`)", name, name)
			}
			return true
		})
	}
}

// callReturnsError reports whether the call's (single or final) result
// is the built-in error type.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
