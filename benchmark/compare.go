package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles holds recording b against recording a: for every workload in
// both and every end-to-end metric, how much worse b's median is as a share
// of a's, against the metric's bound. Where either recording's own quartile
// range is wider than the bound the pair cannot tell a regression from
// noise and is reported as unresolved, not as unchanged. It returns the
// exit code: 1 if any metric regressed or any iteration failed.
func compareFiles(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	lines, bad := compareReports(a, b)
	for _, l := range lines {
		fmt.Println(l)
	}
	if bad > 0 {
		fmt.Printf("%d regression(s)\n", bad)
		return 1
	}
	return 0
}

func compareReports(a, b report) (lines []string, bad int) {
	all := specs(1)
	lines = append(lines, fmt.Sprintf("%-16s %-14s %14s %14s %9s %7s  %s", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict"))
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *result) bool { return r.Name == ra.Name })
		j := slices.IndexFunc(all, func(s *spec) bool { return s.name == ra.Name })
		if i < 0 || j < 0 {
			continue
		}
		rb := b.Workloads[i]
		for _, m := range endToEndMetrics {
			sa, okA := ra.EndToEnd[m.name]
			sb, okB := rb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			bound := m.bound
			if m.perWorkload {
				bound = all[j].wallBound
			}
			worse := ratio(sb.Median-sa.Median, sa.Median)
			if m.higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(ratio(sa.Q3-sa.Q1, sa.Median), ratio(sb.Q3-sb.Q1, sb.Median)) > bound:
				verdict = "unresolved (quartile range wider than the bound)"
			case worse > bound:
				verdict = "REGRESSION"
				bad++
			}
			lines = append(lines, fmt.Sprintf("%-16s %-14s %14.6g %14.6g %+8.1f%% %6.1f%%  %s", ra.Name, m.name, sa.Median, sb.Median, 100*worse, 100*bound, verdict))
		}
		if ra.Failed+rb.Failed > 0 {
			bad++
			lines = append(lines, fmt.Sprintf("%-16s %-14s %14d %14d %9s %7s  %s", ra.Name, failedFrac+" (n)", ra.Failed, rb.Failed, "", "0", "REGRESSION"))
		}
	}
	return lines, bad
}
