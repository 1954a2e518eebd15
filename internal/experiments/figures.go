package experiments

import (
	"fmt"
	"sort"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/sdk"
	"globuscompute/internal/workload"
)

// Fig2 regenerates Figure 2: task invocations per day from November 28,
// 2022 to August 14, 2024, truncated at 100,000/day. full controls whether
// every day is printed or a monthly summary.
func Fig2(seed int64, full bool) Report {
	trace := workload.Fig2Trace(seed)
	stats := workload.Summarize(trace)
	r := Report{
		ID:     "fig2",
		Title:  "Task invocations per day (truncated at 100,000), Nov 28 2022 - Aug 14 2024",
		Header: "date,tasks[,truncated]",
	}
	if full {
		for _, d := range trace {
			r.Rows = append(r.Rows, workload.FormatDay(d))
		}
	} else {
		// Monthly aggregates for terminal-sized output.
		type month struct {
			total, peak, days, truncated int
		}
		byMonth := map[string]*month{}
		var keys []string
		for _, d := range trace {
			k := d.Date.Format("2006-01")
			m, ok := byMonth[k]
			if !ok {
				m = &month{}
				byMonth[k] = m
				keys = append(keys, k)
			}
			m.total += d.Tasks
			m.days++
			if d.Tasks > m.peak {
				m.peak = d.Tasks
			}
			if d.Truncated {
				m.truncated++
			}
		}
		sort.Strings(keys)
		r.Header = "month,tasks,mean/day,peak/day,truncated_days"
		for _, k := range keys {
			m := byMonth[k]
			r.Rows = append(r.Rows, fmt.Sprintf("%s,%d,%d,%d,%d",
				k, m.total, m.total/m.days, m.peak, m.truncated))
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("executed tasks (raw total): %d — paper reports ~17M since Nov 2022", stats.RawTotal),
		fmt.Sprintf("displayed total after truncation: %d over %d days (%d days clipped at %d)",
			stats.Total, stats.Days, stats.TruncatedDays, workload.Fig2Truncation),
		fmt.Sprintf("growth: mean %d tasks/day in first half vs %d in second half",
			int(stats.FirstHalfMean), int(stats.SecondHalfMean)),
	)
	return r
}

// Fig1 exercises the multi-user endpoint architecture of Figure 1 and
// reports the observed event sequence: submit with a user config -> start
// request to the MEP -> identity mapping -> user endpoint spawn -> task
// execution on the user endpoint.
func Fig1() (Report, error) {
	r := Report{ID: "fig1", Title: "Multi-user endpoint start-endpoint flow (Fig. 1)"}
	e, err := newEnv(4)
	if err != nil {
		return r, err
	}
	defer e.close()

	t0 := time.Now()
	event := func(format string, args ...any) {
		r.Rows = append(r.Rows, fmt.Sprintf("%8.1fms  %s",
			float64(time.Since(t0).Microseconds())/1000, fmt.Sprintf(format, args...)))
	}

	mepID, mgr, err := e.tb.StartMEP(core.MEPOptions{
		Name: "fig1-mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(),
	})
	if err != nil {
		return r, err
	}
	event("(0) administrator deploys multi-user endpoint %s", mepID)

	ex, err := e.executor(mepID)
	if err != nil {
		return r, err
	}
	defer ex.Close()
	ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 2, "ACCOUNT_ID": "314159265"}
	event("(1) user submits task with user endpoint configuration (hash keys the UEP)")

	fut, err := ex.SubmitShell(sdk.NewShellFunction("echo running as $GC_LOCAL_USER"), nil)
	if err != nil {
		return r, err
	}
	event("(2) service issues start-endpoint request to the MEP command queue")

	sr, err := shellResultWithin(fut, 30*time.Second)
	if err != nil {
		return r, err
	}
	stats := mgr.Stats()
	event("(3) MEP mapped identity, spawned user endpoint, task executed: %q", sr.Stdout)
	r.Notes = append(r.Notes,
		fmt.Sprintf("children spawned: %d, by local user: %v", stats.ChildrenSpawned, stats.ByLocalUser),
		"matches Fig. 1: the MEP is a process manager; the task ran on the spawned user endpoint",
	)
	return r, nil
}

// Usage reproduces the §VI deployment statistics two ways: the synthetic
// full-scale inventory, and a live scaled-down replay on the testbed.
func Usage(seed int64) (Report, error) {
	r := Report{
		ID:     "usage",
		Title:  "Deployment statistics (§VI): MEPs, spawned UEPs, endpoint fleet",
		Header: "metric,paper,reproduced",
	}
	// Synthetic full-scale inventory.
	d := workload.GenerateDeployment(seed)
	r.Rows = append(r.Rows,
		fmt.Sprintf("total endpoints,%d,%d", workload.DeployTotalEndpoints, d.TotalEndpoints()),
		fmt.Sprintf("multi-user endpoints,%d,%d", workload.DeployMEPs, len(d.UEPsPerMEP)),
		fmt.Sprintf("spawned user endpoints,%d,%d", workload.DeployUEPs, d.TotalUEPs()),
		fmt.Sprintf("UEP fraction of fleet,>13%%,%.1f%%", 100*d.UEPFraction()),
	)

	// Live replay at 1:100 scale: ~1 MEP spawning UEPs for several users.
	e, err := newEnv(8)
	if err != nil {
		return r, err
	}
	defer e.close()
	mepID, mgr, err := e.tb.StartMEP(core.MEPOptions{
		Name: "usage-mep", Owner: "admin@uchicago.edu", Mapper: uchicagoMapper(),
	})
	if err != nil {
		return r, err
	}
	users := []string{"u1@uchicago.edu", "u2@uchicago.edu", "u3@uchicago.edu"}
	for _, u := range users {
		tok, err := e.tb.IssueToken(u, "uchicago")
		if err != nil {
			return r, err
		}
		client := sdk.NewClient(e.tb.ServiceAddr(), tok.Value)
		ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
			Client: client, EndpointID: mepID, Conn: e.conn, Objects: e.objs,
		})
		if err != nil {
			return r, err
		}
		ex.UserEndpointConfig = map[string]any{"NODES_PER_BLOCK": 1, "ACCOUNT_ID": "alloc1"}
		fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, u)
		if err != nil {
			ex.Close()
			return r, err
		}
		if _, err := fut.ResultWithin(30 * time.Second); err != nil {
			ex.Close()
			return r, err
		}
		ex.Close()
	}
	u, err := e.client.Usage()
	if err != nil {
		return r, err
	}
	r.Rows = append(r.Rows,
		fmt.Sprintf("live replay: endpoints,%s,%d", "-", u.Endpoints),
		fmt.Sprintf("live replay: MEPs,%s,%d", "-", u.MultiUserEPs),
		fmt.Sprintf("live replay: spawned UEPs,%s,%d", "-", u.UserEndpoints),
	)
	r.Notes = append(r.Notes,
		fmt.Sprintf("live replay spawned %d UEPs for %d distinct users through one MEP", mgr.Stats().ChildrenSpawned, len(users)))
	return r, nil
}
