// Package diagpure defines an analyzer keeping core.Diagnostics
// schedule-independent.
//
// Diagnostics is part of the explanation Result and the wire schema:
// PR 1's contract (re-affirmed by PR 3's budget accounting and PR 6's
// flip memo) is that every counter in it is byte-identical at any
// Parallelism. The shared scorecache.Service, by contrast, aggregates
// counters across concurrently running explanations — ServiceStats
// explicitly documents that its shared-store counters depend on scheduling.
// PR 6 dodged exactly this bug class by keeping FlipHits in
// ServiceStats instead of Diagnostics; this analyzer makes that
// decision a checked contract: no function may both populate
// Diagnostics and read shared Service state.
package diagpure

import (
	"go/ast"
	"go/token"

	"certa/internal/lint/analysis"
)

const (
	corePath       = "certa/internal/core"
	scorecachePath = "certa/internal/scorecache"
)

// Analyzer flags functions that write core.Diagnostics fields (or
// construct a Diagnostics literal) while also touching shared
// scorecache.Service / ServiceStats state. Per-explanation Scorer
// views are exempt: their private hit/miss accounting is
// parallelism-deterministic by design and is the sanctioned source for
// Diagnostics counters.
var Analyzer = &analysis.Analyzer{
	Name: "diagpure",
	Doc: `forbids populating core.Diagnostics from shared scorecache.Service state

Diagnostics counters must be identical at any Parallelism; shared
Service/ServiceStats counters depend on which explanation got scheduled
first. Populate Diagnostics only from the per-explanation Scorer view,
and surface shared-service counters through ServiceStats and /v1/metrics
(the FlipHits split PR 6 established).`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			check(pass, fn)
		}
	}
	return nil, nil
}

func check(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	var diagWrites []token.Pos
	var sharedTouch token.Pos
	sharedWhat := ""

	recordDiagWrite := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if tv, ok := info.Types[sel.X]; ok && analysis.IsNamed(tv.Type, corePath, "Diagnostics") {
				diagWrites = append(diagWrites, e.Pos())
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				recordDiagWrite(lhs)
			}
		case *ast.IncDecStmt:
			recordDiagWrite(x.X)
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok && analysis.IsNamed(tv.Type, corePath, "Diagnostics") && len(x.Elts) > 0 {
				diagWrites = append(diagWrites, x.Pos())
			}
		case *ast.SelectorExpr:
			// Any method call or field read on the shared Service, or a
			// field read of aggregate ServiceStats, counts as touching
			// schedule-dependent state.
			if tv, ok := info.Types[x.X]; ok && sharedTouch == token.NoPos {
				if analysis.IsNamed(tv.Type, scorecachePath, "Service") {
					sharedTouch, sharedWhat = x.Pos(), "scorecache.Service."+x.Sel.Name
				} else if analysis.IsNamed(tv.Type, scorecachePath, "ServiceStats") {
					sharedTouch, sharedWhat = x.Pos(), "scorecache.ServiceStats."+x.Sel.Name
				}
			}
		}
		return true
	})

	if sharedTouch == token.NoPos {
		return
	}
	for _, pos := range diagWrites {
		pass.Reportf(pos,
			"%s writes core.Diagnostics while touching shared %s; shared-service counters are schedule-dependent and must stay out of Diagnostics (use the per-explanation Scorer view, report shared counters via ServiceStats)",
			fn.Name.Name, sharedWhat)
	}
}
