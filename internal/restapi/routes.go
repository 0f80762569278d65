package restapi

// The request-path scaffolding every surface shares (DESIGN.md §6.3): the
// route table and its registrar, the JSON body decoder, and the
// Idempotency-Key protocol. A new route is one table row; a new idempotent
// create is one idemDo call.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// route is one row of a surface's route table.
type route struct {
	// method is the HTTP method the row serves; "" registers the pattern for
	// every method as written, with no 405 fallback.
	method string
	// pattern is the http.ServeMux path pattern, without the method.
	pattern string
	// h serves the row.
	h http.HandlerFunc
}

// mount registers a route table on the mux: every row as a Go 1.22 method
// pattern, plus, per path, the bare-path fallback that answers any other
// method with the JSON 405 envelope naming the methods the table registers
// for that path. A subtree path (trailing slash) cannot take method patterns
// — they would conflict with the bare fallbacks of the patterns beneath it —
// so its rows are dispatched on the exact method by one method-less handler.
func mount(mux *http.ServeMux, table []route) {
	byPath := make(map[string][]route)
	for _, rt := range table {
		if rt.method == "" {
			mux.HandleFunc(rt.pattern, rt.h)
			continue
		}
		byPath[rt.pattern] = append(byPath[rt.pattern], rt)
	}
	for path, rows := range byPath {
		var served []string
		for _, rt := range rows {
			served = append(served, rt.method)
		}
		msg := errors.New("restapi: use " + strings.Join(served, " or "))
		deny := func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusMethodNotAllowed, msg)
		}
		if strings.HasSuffix(path, "/") {
			mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
				for _, rt := range rows {
					if rt.method == r.Method {
						rt.h(w, r)
						return
					}
				}
				deny(w, r)
			})
			continue
		}
		for _, rt := range rows {
			mux.HandleFunc(rt.method+" "+path, rt.h)
		}
		mux.HandleFunc(path, deny)
	}
}

// itemRoutes is the rows of one {id}-addressed collection under base: GET
// and DELETE on base/{id}, and the same pair on the base/ subtree for the
// paths that pattern rejects (empty ID, extra segments), where the first
// segment is taken as the ID — the pre-pattern prefix handlers' parse, so
// those paths keep their JSON envelopes.
func itemRoutes(base string, get, del http.HandlerFunc) []route {
	firstSegment := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, base+"/"), "/")
			r.SetPathValue("id", id)
			h(w, r)
		}
	}
	return []route{
		{http.MethodGet, base + "/{id}", get},
		{http.MethodDelete, base + "/{id}", del},
		{http.MethodGet, base + "/", firstSegment(get)},
		{http.MethodDelete, base + "/", firstSegment(del)},
	}
}

// decodeBody parses the JSON request body into v. False means the 400 is
// written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: bad JSON: %w", err))
		return false
	}
	return true
}

// idemOp is what differs between the idempotent creates.
type idemOp[T any] struct {
	// act performs the create.
	act func() (T, error)
	// status is the success status of an outcome; errStatus maps a failure.
	status    func(T) int
	errStatus func(error) int
	// refresh, when set, brings a replayed outcome up to the object's
	// current state.
	refresh func(T) T
	// write, when set, writes the outcome in place of writeJSON.
	write func(http.ResponseWriter, int, T)
}

// idemDo runs a create under the Idempotency-Key protocol: without a key it
// just acts; the first request with a key acts under the entry's once,
// concurrent and later duplicates replay its outcome with
// Idempotency-Replay: true, and a failure is dropped from the store — never
// cached — so a retry re-attempts.
func idemDo[T any](w http.ResponseWriter, key string, st *idemStore[T], op idemOp[T]) {
	var (
		out    T
		err    error
		replay bool
	)
	if key == "" {
		out, err = op.act()
	} else {
		e := st.entry(key)
		replay = true
		e.once.Do(func() {
			replay = false
			if e.snap, e.err = op.act(); e.err != nil {
				st.drop(key)
			} else {
				st.complete(key)
			}
		})
		out, err = e.snap, e.err
	}
	if err != nil {
		writeErr(w, op.errStatus(err), err)
		return
	}
	status := op.status(out)
	if replay {
		w.Header().Set("Idempotency-Replay", "true")
		if op.refresh != nil {
			out = op.refresh(out)
		}
	}
	if op.write != nil {
		op.write(w, status, out)
		return
	}
	writeJSON(w, status, out)
}

// internalError is the errStatus of creates whose inputs were validated
// before acting: whatever still fails is the server's fault.
func internalError(error) int { return http.StatusInternalServerError }
