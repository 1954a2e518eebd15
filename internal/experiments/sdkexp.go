package experiments

import (
	"fmt"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/sdk"
)

// StreamingResult carries the measured comparison for one arm of the
// streaming-vs-polling experiment (§III-A claim T1).
type StreamingResult struct {
	Mode          string
	Tasks         int
	Elapsed       time.Duration
	RESTRequests  int64
	BytesSent     int64
	BytesReceived int64
}

// runExecutorArm runs n identity tasks through an executor configured for
// streaming (conn != nil) or polling and measures traffic and latency.
func (e *env) runExecutorArm(streaming bool, pollInterval time.Duration, legacy bool, n int) (StreamingResult, error) {
	epID, err := e.tb.StartEndpoint(core.EndpointOptions{Name: "t1-ep", Owner: "bench", Workers: 8})
	if err != nil {
		return StreamingResult{}, err
	}
	cfg := sdk.ExecutorConfig{Client: e.client, EndpointID: epID, Objects: e.objs}
	mode := "polling"
	if streaming {
		cfg.Conn = e.conn
		mode = "streaming"
	} else {
		cfg.PollInterval = pollInterval
		cfg.LegacyPolling = legacy
	}
	ex, err := sdk.NewExecutor(cfg)
	if err != nil {
		return StreamingResult{}, err
	}
	defer ex.Close()

	req0 := e.client.Requests.Load()
	sent0 := e.client.BytesSent.Load()
	recv0 := e.client.BytesReceived.Load()

	fn := &sdk.PythonFunction{Entrypoint: "identity"}
	start := time.Now()
	futs := make([]*sdk.Future, n)
	for i := range futs {
		fut, err := ex.Submit(fn, i)
		if err != nil {
			return StreamingResult{}, err
		}
		futs[i] = fut
	}
	if err := waitAll(futs, 60*time.Second); err != nil {
		return StreamingResult{}, err
	}
	return StreamingResult{
		Mode:          mode,
		Tasks:         n,
		Elapsed:       time.Since(start),
		RESTRequests:  e.client.Requests.Load() - req0,
		BytesSent:     e.client.BytesSent.Load() - sent0,
		BytesReceived: e.client.BytesReceived.Load() - recv0,
	}, nil
}

// Streaming compares the future-based streaming executor with the legacy
// polling path across polling intervals (T1).
func Streaming(n int) (Report, error) {
	r := Report{
		ID:     "streaming",
		Title:  fmt.Sprintf("Executor result streaming vs REST polling (%d tasks)", n),
		Header: "mode,tasks,elapsed_ms,rest_requests,bytes_sent,bytes_received",
	}
	arms := []struct {
		streaming bool
		poll      time.Duration
		legacy    bool
		label     string
	}{
		{true, 0, false, "streaming"},
		{false, 10 * time.Millisecond, true, "legacy-polling@10ms"},
		{false, 100 * time.Millisecond, true, "legacy-polling@100ms"},
		{false, 100 * time.Millisecond, false, "batch-polling@100ms"},
		{false, 500 * time.Millisecond, true, "legacy-polling@500ms"},
	}
	var streamReqs, worstPollReqs int64
	for _, arm := range arms {
		e, err := newEnv(4)
		if err != nil {
			return r, err
		}
		res, err := e.runExecutorArm(arm.streaming, arm.poll, arm.legacy, n)
		e.close()
		if err != nil {
			return r, fmt.Errorf("%s: %w", arm.label, err)
		}
		res.Mode = arm.label
		r.Rows = append(r.Rows, fmt.Sprintf("%s,%d,%.1f,%d,%d,%d",
			res.Mode, res.Tasks, float64(res.Elapsed.Microseconds())/1000,
			res.RESTRequests, res.BytesSent, res.BytesReceived))
		if arm.streaming {
			streamReqs = res.RESTRequests
		} else if res.RESTRequests > worstPollReqs {
			worstPollReqs = res.RESTRequests
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("streaming used %d REST requests vs up to %d when polling — the paper's \"far more efficient in bytes over the wire and time spent waiting\"", streamReqs, worstPollReqs),
		"polling also adds up to one interval of latency per task on top of execution",
	)
	return r, nil
}

// BatchingResult is one arm of the request-batching experiment (T2).
type BatchingResult struct {
	Mode         string
	Tasks        int
	Elapsed      time.Duration
	RESTRequests int64
}

// Batching compares batched submission against one-REST-call-per-task (T2).
// The batched arm is the executor's default: submissions post as soon as the
// previous POST returns, so a burst leaves in a few calls. The unbatched arm
// caps every call at one task.
func Batching(n int) (Report, error) {
	r := Report{
		ID:     "batching",
		Title:  fmt.Sprintf("SDK request batching (%d tasks)", n),
		Header: "mode,tasks,elapsed_ms,rest_submit_requests",
	}
	arms := []struct {
		max   int
		label string
	}{
		{1024, "batched"},
		{1, "unbatched"},
	}
	var batched, unbatched int64
	for _, arm := range arms {
		e, err := newEnv(4)
		if err != nil {
			return r, err
		}
		epID, err := e.tb.StartEndpoint(core.EndpointOptions{Name: "t2-ep", Owner: "bench", Workers: 8})
		if err != nil {
			e.close()
			return r, err
		}
		ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
			Client: e.client, EndpointID: epID, Conn: e.conn, Objects: e.objs,
			MaxBatch: arm.max,
		})
		if err != nil {
			e.close()
			return r, err
		}
		fn := &sdk.PythonFunction{Entrypoint: "identity"}
		req0 := e.client.Requests.Load()
		start := time.Now()
		futs := make([]*sdk.Future, n)
		for i := range futs {
			fut, err := ex.Submit(fn, i)
			if err != nil {
				ex.Close()
				e.close()
				return r, err
			}
			futs[i] = fut
		}
		if err := waitAll(futs, 60*time.Second); err != nil {
			ex.Close()
			e.close()
			return r, err
		}
		elapsed := time.Since(start)
		// Subtract the single function-registration request.
		reqs := e.client.Requests.Load() - req0 - 1
		ex.Close()
		e.close()
		r.Rows = append(r.Rows, fmt.Sprintf("%s,%d,%.1f,%d",
			arm.label, n, float64(elapsed.Microseconds())/1000, reqs))
		if arm.max == 1 {
			unbatched = reqs
		} else {
			batched = reqs
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("batching collapsed %d submissions into %d REST calls (vs %d unbatched)", n, batched, unbatched))
	return r, nil
}
