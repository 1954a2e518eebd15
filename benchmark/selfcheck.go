package main

import "fmt"

// selfcheck runs the untraced suite twice with the same seed and compares
// every end-to-end metric of every workload within its own bound: the
// benchmark's evidence that identical code reads the same twice.
func selfcheck(o options) int {
	var runs [2]map[string]map[string]float64
	for r := range runs {
		runs[r] = make(map[string]map[string]float64)
		for _, w := range o.workloads {
			p, err := runPassTimed(untracedOptions(o, w))
			if err != nil {
				fmt.Println("selfcheck:", err)
				return 1
			}
			if p.invalid != "" || p.failed > 0 {
				fmt.Printf("selfcheck: %s run %c: invalid %q, %d failed\n", w.name, 'A'+r, p.invalid, p.failed)
				return 1
			}
			runs[r][w.name] = endToEndValues(p)
		}
	}
	code := 0
	fmt.Printf("%-13s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "run A", "run B", "diff", "bound", "verdict")
	for _, w := range o.workloads {
		for _, d := range endToEnd {
			a, b := runs[0][w.name][d.name], runs[1][w.name][d.name]
			verdict := "PASS"
			// Neither run may be worse than the other by more than the bound.
			if !withinBound(d.higher, a, b, d.bound) || !withinBound(d.higher, b, a, d.bound) {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-13s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				w.name, d.name, a, b, 100*ratio(b-a, a), 100*d.bound, verdict)
		}
	}
	return code
}
