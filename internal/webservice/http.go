package webservice

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/metrics"
	"globuscompute/internal/protocol"
	"globuscompute/internal/serialize"
	"globuscompute/internal/statestore"
)

// Server is the REST front end (the FastAPI substitute). It carries the
// broker and object-store addresses so registering endpoints learn where to
// connect, the way the hosted service hands agents their AMQPS URLs.
type Server struct {
	svc  *Service
	http *http.Server
	ln   net.Listener

	// BrokerAddr and ObjectsAddr are returned in registration responses.
	BrokerAddr  string
	ObjectsAddr string
}

// ServeHTTP starts the REST API on addr.
func ServeHTTP(svc *Service, addr, brokerAddr, objectsAddr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("webservice: listen: %w", err)
	}
	s := &Server{svc: svc, ln: ln, BrokerAddr: brokerAddr, ObjectsAddr: objectsAddr}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/functions", s.auth(s.handleRegisterFunction))
	mux.HandleFunc("GET /v2/functions/{id}", s.auth(s.handleGetFunction))
	mux.HandleFunc("POST /v2/endpoints", s.auth(s.handleRegisterEndpoint))
	mux.HandleFunc("GET /v2/endpoints", s.auth(s.handleSearchEndpoints))
	mux.HandleFunc("GET /v2/endpoints/{id}", s.auth(s.handleGetEndpoint))
	mux.HandleFunc("POST /v2/endpoints/{id}/heartbeat", s.auth(s.handleHeartbeat))
	mux.HandleFunc("POST /v2/routing_groups", s.auth(s.handleCreateRoutingGroup))
	mux.HandleFunc("GET /v2/routing_groups", s.auth(s.handleListRoutingGroups))
	mux.HandleFunc("GET /v2/routing_groups/{id}", s.auth(s.handleGetRoutingGroup))
	mux.HandleFunc("PUT /v2/routing_groups/{id}", s.auth(s.handleUpdateRoutingGroup))
	mux.HandleFunc("POST /v2/submit", s.auth(s.handleSubmit))
	mux.HandleFunc("GET /v2/tasks/{id}", s.auth(s.handleGetTask))
	mux.HandleFunc("POST /v2/tasks/batch_status", s.auth(s.handleBatchStatus))
	mux.HandleFunc("POST /v2/tasks/{id}/cancel", s.auth(s.handleCancelTask))
	mux.HandleFunc("GET /v2/usage", s.auth(s.handleUsage))
	mux.HandleFunc("GET /v2/audit", s.auth(s.handleAudit))
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /debug/fleet", s.handleDebugFleet)
	mux.HandleFunc("GET /debug/logs", s.handleDebugLogs)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/fleet", s.handleMetricsFleet)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if svc.cfg.Pprof {
		// Continuous-profiling hooks for `go tool pprof`: the stdlib pprof
		// handlers behind the debug ?token= auth.
		// pprof.Index routes the named profiles (heap, goroutine, block, ...)
		// under the prefix itself.
		pprofWrap := func(h http.HandlerFunc) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				if !s.debugAuth(w, r) {
					return
				}
				h(w, r)
			}
		}
		mux.HandleFunc("GET /debug/pprof/", pprofWrap(pprof.Index))
		mux.HandleFunc("GET /debug/pprof/cmdline", pprofWrap(pprof.Cmdline))
		mux.HandleFunc("GET /debug/pprof/profile", pprofWrap(pprof.Profile))
		mux.HandleFunc("GET /debug/pprof/symbol", pprofWrap(pprof.Symbol))
		mux.HandleFunc("GET /debug/pprof/trace", pprofWrap(pprof.Trace))
	}
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP listener (the service itself is closed separately).
func (s *Server) Close() { s.http.Close() }

// Shutdown stops accepting new connections and waits for in-flight requests
// to finish (or ctx to expire). Used by the SIGTERM drain path so accepted
// submits are journaled rather than torn off mid-handler.
func (s *Server) Shutdown(ctx context.Context) error { return s.http.Shutdown(ctx) }

type errorResponse struct {
	Error string `json:"error"`
	// RetryAfter mirrors the Retry-After header (in seconds) on overload
	// sheds, for clients that only read bodies.
	RetryAfter int `json:"retry_after,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	var oe *OverloadError
	if errors.As(err, &oe) {
		// Retry-After is whole seconds, rounded up so clients never retry
		// before the deficit has actually refilled.
		secs := int((oe.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		resp.RetryAfter = secs
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, resp)
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	var oe *OverloadError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &oe):
		return oe.Status // 429 admission, 503 downstream pressure
	case errors.Is(err, serialize.ErrPayloadTooLarge), errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errSubmitVersion):
		return http.StatusUnsupportedMediaType
	case errors.Is(err, statestore.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, auth.ErrPolicyDenied), errors.Is(err, ErrFunctionNotAllowed):
		return http.StatusForbidden
	case errors.Is(err, auth.ErrInvalidToken), errors.Is(err, auth.ErrMissingScope):
		return http.StatusUnauthorized
	default:
		return http.StatusBadRequest
	}
}

// auth wraps a handler with bearer-token authentication.
func (s *Server) auth(h func(http.ResponseWriter, *http.Request, auth.Token)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		header := r.Header.Get("Authorization")
		value, ok := strings.CutPrefix(header, "Bearer ")
		if !ok {
			writeError(w, http.StatusUnauthorized, errors.New("missing bearer token"))
			return
		}
		tok, err := s.svc.cfg.Auth.Authorize(value, auth.ScopeCompute)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		h(w, r, tok)
	}
}

// maxBodyBytes caps every request body the REST API reads.
const maxBodyBytes = 64 << 20

// decodeBody decodes a JSON request body holding exactly one value;
// anything after it but whitespace is refused.
func decodeBody(r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("webservice: bad request body: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == nil:
		return errors.New("webservice: bad request body: data after the JSON value")
	case !errors.Is(err, io.EOF):
		return fmt.Errorf("webservice: bad request body: %w", err)
	}
	return nil
}

// --- handlers ---

type registerFunctionRequest struct {
	Kind       protocol.FunctionKind `json:"kind"`
	Definition []byte                `json:"definition"`
}

type registerFunctionResponse struct {
	FunctionID protocol.UUID `json:"function_uuid"`
}

func (s *Server) handleRegisterFunction(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	var req registerFunctionRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	id, err := s.svc.RegisterFunction(tok.Identity.Username, req.Kind, req.Definition)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, registerFunctionResponse{FunctionID: id})
}

func (s *Server) handleGetFunction(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	rec, err := s.svc.GetFunction(protocol.UUID(r.PathValue("id")))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// RegisterEndpointResponse tells an agent its identity and where to connect.
type RegisterEndpointResponse struct {
	EndpointID   protocol.UUID `json:"endpoint_uuid"`
	TaskQueue    string        `json:"task_queue"`
	ResultQueue  string        `json:"result_queue"`
	CommandQueue string        `json:"command_queue,omitempty"`
	BrokerAddr   string        `json:"broker_addr"`
	ObjectsAddr  string        `json:"objectstore_addr,omitempty"`
}

func (s *Server) handleRegisterEndpoint(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	var req RegisterEndpointRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if req.MultiUser && !tok.HasScope(auth.ScopeManage) {
		writeError(w, http.StatusForbidden, errors.New("multi-user endpoints require the manage scope"))
		return
	}
	req.Owner = tok.Identity.Username
	id, err := s.svc.RegisterEndpoint(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	resp := RegisterEndpointResponse{
		EndpointID:  id,
		TaskQueue:   TaskQueue(id),
		ResultQueue: ResultQueue(id),
		BrokerAddr:  s.BrokerAddr,
		ObjectsAddr: s.ObjectsAddr,
	}
	if req.MultiUser {
		resp.CommandQueue = CommandQueue(id)
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleSearchEndpoints(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	results := s.svc.SearchEndpoints(r.URL.Query().Get("search"))
	writeJSON(w, http.StatusOK, map[string]any{"endpoints": results})
}

func (s *Server) handleGetEndpoint(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	rec, err := s.svc.GetEndpoint(protocol.UUID(r.PathValue("id")))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// routingGroupRequest creates or updates a routing group: submissions naming
// the returned group UUID as their endpoint_id fan out across the members by
// the placement policy.
type routingGroupRequest struct {
	Name    string          `json:"name"`
	Policy  string          `json:"policy,omitempty"`
	Members []protocol.UUID `json:"members"`
}

func (s *Server) handleCreateRoutingGroup(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	var req routingGroupRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	id, err := s.svc.CreateRoutingGroup(tok, req.Name, req.Policy, req.Members)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"routing_group_uuid": id})
}

func (s *Server) handleListRoutingGroups(w http.ResponseWriter, _ *http.Request, tok auth.Token) {
	writeJSON(w, http.StatusOK, map[string]any{
		"routing_groups": s.svc.ListRoutingGroups(tok.Identity.Username),
	})
}

func (s *Server) handleGetRoutingGroup(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	rec, err := s.svc.GetRoutingGroup(protocol.UUID(r.PathValue("id")))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleUpdateRoutingGroup(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	var req routingGroupRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	id := protocol.UUID(r.PathValue("id"))
	if err := s.svc.UpdateRoutingGroup(tok, id, req.Policy, req.Members); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type heartbeatRequest struct {
	Online bool `json:"online"`
	// Load is the agent's optional utilization report.
	Load *statestore.EndpointLoad `json:"load,omitempty"`
	// Metrics is an optional delta-encoded snapshot of the agent's metric
	// registries, piggybacked on the heartbeat so federation needs no extra
	// connection or listener on the agent side.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	var req heartbeatRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	id := protocol.UUID(r.PathValue("id"))
	if err := s.svc.RecordHeartbeat(id, req.Online, req.Load, req.Metrics); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type submitResponse struct {
	TaskIDs []protocol.UUID `json:"task_uuids"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	tasks, opts, err := ReadSubmitBody(r, serialize.MaxPayload)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	ids, err := s.svc.SubmitBatch(tok, tasks, opts)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	WriteSubmitReply(w, r, ids)
}

func (s *Server) handleGetTask(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	st, err := s.svc.GetTask(protocol.UUID(r.PathValue("id")))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

type batchStatusRequest struct {
	TaskIDs []protocol.UUID `json:"task_ids"`
}

type batchStatusResponse struct {
	Tasks []TaskStatus `json:"tasks"`
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request, _ auth.Token) {
	var req batchStatusRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if len(req.TaskIDs) > 1024 {
		writeError(w, http.StatusBadRequest, errors.New("webservice: batch_status limited to 1024 tasks"))
		return
	}
	writeJSON(w, http.StatusOK, batchStatusResponse{Tasks: s.svc.GetTasks(req.TaskIDs)})
}

func (s *Server) handleCancelTask(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	if err := s.svc.CancelTask(tok, protocol.UUID(r.PathValue("id"))); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}

func (s *Server) handleUsage(w http.ResponseWriter, _ *http.Request, _ auth.Token) {
	writeJSON(w, http.StatusOK, s.svc.Usage())
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request, tok auth.Token) {
	if !tok.HasScope(auth.ScopeManage) {
		writeError(w, http.StatusForbidden, errors.New("audit access requires the manage scope"))
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		fmt.Sscanf(q, "%d", &n)
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": s.svc.AuditTail(n)})
}
