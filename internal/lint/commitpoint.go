package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CommitPoint enforces the staged-metadata protocol that fixed the
// phantom-version bug (PR 5): mutators clone the durable document
// (metaClone), edit the clone, commit it through the commit seam
// (commitMeta / saveMeta / (*manifest).commit — one manifest-log
// append), and only then install it into the live arrayState. Writing an installed arrayMeta field BEFORE the
// commit re-creates the bug class: a failed commit leaves in-memory
// metadata (a selectable phantom version) that a reopen loses.
//
// The analyzer flags every write to an arrayMeta field reached through
// an arrayState value — the live, installed copy — plus every call to
// a designated installer function (declared with //avlint:installer in
// its doc comment), unless a commit-seam call appears earlier in the
// same function body. Writes to a detached *arrayMeta / arrayMeta
// value (the staged clone) are the correct pattern and are never
// flagged. Loaders and recovery paths, where the disk is the
// authority and no commit precedes the install by design, carry
// //avlint:allow-install <reason> on the write.
var CommitPoint = &Analyzer{
	Name:      "commitpoint",
	Directive: "install",
	Doc:       "installed arrayState metadata writes must be dominated by a successful commit-seam call",
	Applies: func(path string) bool {
		return PathSuffix(path, "internal/core")
	},
	Run: runCommitPoint,
}

// commitSeamFuncs are the calls that constitute the metadata commit
// point.
var commitSeamFuncs = map[string]bool{
	"commitMeta": true,
	"saveMeta":   true,
}

// commitSeamCall reports whether the call is a commit-seam invocation:
// one of commitSeamFuncs, or the manifest log's own append
// ((*manifest).commit — the seam commitMeta itself bottoms out in,
// which multi-array commits invoke directly to make N arrays durable
// in one record).
func commitSeamCall(info *types.Info, call *ast.CallExpr) bool {
	name, _ := calleeOf(info, call)
	if commitSeamFuncs[name] {
		return true
	}
	if name != "commit" {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := info.TypeOf(sel.X)
	return recv != nil && isNamed(recv, "manifest")
}

func runCommitPoint(pass *Pass) {
	info := pass.Pkg.Info

	// Pass 1: collect designated installers (//avlint:installer) — their
	// own writes are the install implementation; what matters is that
	// every CALL site is commit-dominated.
	installers := map[types.Object]bool{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if FuncDirective(fn, "installer") {
				if obj := info.Defs[fn.Name]; obj != nil {
					installers[obj] = true
				}
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if FuncDirective(fn, "installer") {
				continue // the designated install implementation
			}
			checkCommitOrder(pass, fn, installers)
		}
	}
}

// checkCommitOrder walks one function body in source order: install
// events (writes to live arrayMeta fields, calls to installers) are
// legal only after a commit-seam call has been seen.
func checkCommitOrder(pass *Pass, fn *ast.FuncDecl, installers map[types.Object]bool) {
	info := pass.Pkg.Info
	type event struct {
		pos  token.Pos
		kind int // 0 commit, 1 install-write, 2 installer-call
		what string
	}
	var events []event

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			name, obj := calleeOf(info, s)
			if commitSeamCall(info, s) {
				events = append(events, event{s.Pos(), 0, name})
			} else if obj != nil && installers[obj] {
				events = append(events, event{s.Pos(), 2, name})
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if field, ok := installedMetaWrite(info, lhs); ok {
					events = append(events, event{lhs.Pos(), 1, field})
				}
			}
		case *ast.IncDecStmt:
			if field, ok := installedMetaWrite(info, s.X); ok {
				events = append(events, event{s.X.Pos(), 1, field})
			}
		}
		return true
	})

	committed := token.NoPos
	for _, e := range events {
		if e.kind == 0 {
			if committed == token.NoPos || e.pos < committed {
				committed = e.pos
			}
		}
	}
	for _, e := range events {
		if e.kind == 0 {
			continue
		}
		if committed != token.NoPos && e.pos > committed {
			continue // install after the commit point: the correct order
		}
		switch e.kind {
		case 1:
			pass.Reportf(e.pos, "write to installed metadata field %s before any commit-seam call: stage a clone (metaClone), commit it, and install only on success (phantom-version bug class)", e.what)
		case 2:
			pass.Reportf(e.pos, "installer %s called before any commit-seam call: the staged document must be committed first (phantom-version bug class)", e.what)
		}
	}
}

// calleeOf resolves a call's method/function name and object.
func calleeOf(info *types.Info, call *ast.CallExpr) (string, types.Object) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name, info.Uses[fun.Sel]
	case *ast.Ident:
		return fun.Name, info.Uses[fun]
	}
	return "", nil
}

// installedMetaWrite reports whether expr writes an arrayMeta-owned
// field through an arrayState (the live installed copy): st.Versions,
// st.NextID, st.Gen, st.arrayMeta, ... Writes through a detached
// arrayMeta value (a staged clone) do not match.
func installedMetaWrite(info *types.Info, expr ast.Expr) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base := info.TypeOf(sel.X)
	if base == nil || !isNamed(base, "arrayState") {
		return "", false
	}
	if sel.Sel.Name == "arrayMeta" {
		return "arrayState.arrayMeta", true
	}
	// resolve the selected field's owner: only arrayMeta fields (the
	// durable document) are protected; runtime latches and caches
	// (writeMu, cachedView, dir, ...) are not
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !fieldOfStruct(v, "arrayMeta") {
		return "", false
	}
	return "arrayMeta." + v.Name(), true
}

// isNamed reports whether t (or its pointee) is a named type with the
// given name.
func isNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// fieldOfStruct reports whether v is a field declared in the named
// struct type (searching the declaring package's scope).
func fieldOfStruct(v *types.Var, structName string) bool {
	if !v.IsField() || v.Pkg() == nil {
		return false
	}
	obj := v.Pkg().Scope().Lookup(structName)
	if obj == nil {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}
