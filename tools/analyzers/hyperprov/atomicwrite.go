package hyperprov

import (
	"go/ast"

	"github.com/hyperprov/hyperprov/tools/analyzers/analysis"
)

// AtomicWrite enforces the durability discipline PR 3 established: in the
// packages that own durable files (blockstore, recovery, offchain) and in
// the shared durable-write helper, publishing a file must go through
// temp-file + fsync + rename + directory fsync, never a direct
// os.WriteFile or os.Create that can leave a torn file behind a valid name
// after a crash. os.CreateTemp and os.OpenFile
// remain legal: the former is the sanctioned first step of the atomic
// pattern, the latter is how the append-only block file opens.
var AtomicWrite = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc: "flag direct os.WriteFile/os.Create in durable-file packages " +
		"(blockstore, recovery, offchain, durable); durable files must be published " +
		"via temp+fsync+rename+dir-fsync",
	Run: runAtomicWrite,
}

func runAtomicWrite(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path(), "blockstore", "recovery", "offchain", "durable") {
		return nil
	}
	allow := newAllowIndex(pass)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue // tests write torn fixtures on purpose
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			for _, name := range []string{"WriteFile", "Create"} {
				if isPkgFunc(fn, "os", name) {
					if allow.allowed(pass.Analyzer.Name, call.Pos()) {
						return true
					}
					pass.Reportf(call.Pos(),
						"os.%s bypasses the temp+rename+dir-fsync discipline for durable files; "+
							"write to an os.CreateTemp file, fsync, rename into place, and fsync the directory",
						name)
				}
			}
			return true
		})
	}
	return nil
}
