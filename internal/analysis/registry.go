package analysis

// All returns the full ndss-lint analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		ErrDiscard,
		FSIODiscipline,
		GuardedBy,
		MetricHygiene,
	}
}

// ByName resolves a comma-separated analyzer selection; unknown names
// return nil and the offending name.
func ByName(names []string) ([]*Analyzer, string) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, n
		}
		out = append(out, a)
	}
	return out, ""
}
