package lint

// Run loads the module rooted at root (the directory containing
// go.mod), applies every registered analyzer to every package, filters
// the findings through the //lint:allow directive layer and returns the
// surviving diagnostics in a stable order. An empty slice means the
// tree is clean.
func Run(root string) ([]Diagnostic, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	emit := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range mod.Pkgs {
		for _, a := range Analyzers() {
			a.Run(&Pass{Mod: mod, Pkg: pkg, check: a.Name, emit: emit})
		}
	}
	diags = applyDirectives(diags, collectDirectives(mod, analyzerNames()))
	sortDiagnostics(diags)
	return diags, nil
}
