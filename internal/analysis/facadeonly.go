package analysis

import (
	"strconv"
	"strings"
)

// FacadeAllowed is the import allowlist for cmd/ binaries and examples/
// programs: the public facade, plus the analytics/presentation layers
// (experiment tables and text charts) and the static-analysis suite
// (cmd/modlint's engine), which are consumers of the facade themselves
// rather than algorithm constructors.  Everything algorithmic — online,
// offline, dyadic, batching, hybrid, core, mergetree, schedule, sim,
// multiobject, arrivals, live, serve — must be reached through repro/mod.
var FacadeAllowed = map[string]bool{
	"repro/mod":                  true,
	"repro/internal/experiments": true,
	"repro/internal/textplot":    true,
	"repro/internal/analysis":    true,
}

// facadeRestricted lists the import-path prefixes of the packages the
// facade boundary protects: the front-end programs.
var facadeRestricted = []string{"repro/cmd/", "repro/examples/"}

// Facadeonly enforces the PR-4 API boundary at the AST level: no cmd/ or
// examples/ file may import a repro package outside FacadeAllowed.
// Because the check runs on ImportSpecs it catches renamed, dot, and
// blank imports alike — the shapes a string scan over source text can
// miss.  mod/facade_test.go runs this same analyzer, so the test and the
// vettool cannot disagree.
var Facadeonly = &Analyzer{
	Name: "facadeonly",
	Doc: "cmd/ and examples/ must compile against the repro/mod facade only: " +
		"any repro/... import outside the allowlist (mod, experiments, textplot) is a boundary violation",
	Run: runFacadeonly,
}

func runFacadeonly(pass *Pass) {
	restricted := false
	for _, prefix := range facadeRestricted {
		if strings.HasPrefix(pass.Pkg.Path+"/", prefix) || strings.HasPrefix(pass.Pkg.Path, prefix) {
			restricted = true
		}
	}
	if !restricted {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.AST.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if strings.HasPrefix(path, "repro/") && !FacadeAllowed[path] {
				pass.Reportf(imp.Pos(), "import of %q: cmd/ and examples/ must reach algorithms through repro/mod only", path)
			}
		}
	}
}
