package lint

import (
	"go/ast"
	"go/types"
)

// FsioCheck enforces the durability boundary: inside internal/core,
// every filesystem mutation must flow through the injectable fsio.FS
// (Options.FS) so the fault matrix, the transient-fault sweeps, and
// the crash recovery tests see it. A raw os.Rename or (*os.File).Sync
// in core is a write the ~270-point crash matrix can never interrupt —
// exactly how an untested commit-protocol step slips in. Reads
// (os.Open, os.ReadFile, os.Stat, os.ReadDir) are exempt: the boundary
// exists for mutations, whose ordering the commit protocol proves.
//
// Escape hatch: //avlint:allow-os <reason> on the call's line (or the
// comment line above it).
var FsioCheck = &Analyzer{
	Name:      "fsiocheck",
	Directive: "os",
	Doc:       "raw os.* filesystem mutations inside the durability boundary must go through fsio.FS",
	Applies: func(path string) bool {
		return PathSuffix(path, "internal/core")
	},
	Run: runFsioCheck,
}

// bannedOSFuncs are the package-level os mutations the boundary
// forbids. os.Open/ReadFile/Stat stay legal — reads need no fault
// injection.
var bannedOSFuncs = map[string]bool{
	"Create":     true,
	"CreateTemp": true,
	"OpenFile":   true,
	"Rename":     true,
	"Remove":     true,
	"RemoveAll":  true,
	"Mkdir":      true,
	"MkdirAll":   true,
	"MkdirTemp":  true,
	"WriteFile":  true,
	"Truncate":   true,
	"Symlink":    true,
	"Link":       true,
	"Chmod":      true,
	"Chtimes":    true,
}

// bannedFileMethods are (*os.File) methods that mutate durable state.
// A raw handle's Sync is an fsync the fault matrix cannot count or
// fail, so it breaks the "every fsync is a numbered crash point"
// contract.
var bannedFileMethods = map[string]bool{
	"Sync":     true,
	"Truncate": true,
	"Chmod":    true,
}

func runFsioCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// package-level os.X(...)
			if ident, ok := sel.X.(*ast.Ident); ok {
				if pkgName, ok := info.Uses[ident].(*types.PkgName); ok && pkgName.Imported().Path() == "os" {
					if bannedOSFuncs[sel.Sel.Name] {
						pass.Reportf(call.Pos(), "os.%s bypasses the fsio.FS durability boundary (use Options.FS / s.fs so fault injection sees the write)", sel.Sel.Name)
					}
					return true
				}
			}
			// method on *os.File
			if bannedFileMethods[sel.Sel.Name] {
				if t := info.TypeOf(sel.X); t != nil && isOSFile(t) {
					pass.Reportf(call.Pos(), "(*os.File).%s on a raw handle bypasses the fsio.FS durability boundary (fsio.File carries the counted %s)", sel.Sel.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// isOSFile reports whether t is *os.File (or os.File).
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
