package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Healthz is the serving binaries' /healthz liveness endpoint.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// PprofHandler returns the standard net/http/pprof surface mounted on a
// fresh mux. The daemons expose it on an opt-in diagnostics listener
// (-pprof addr) rather than registering pprof on their serving mux, so
// profiling never rides on a port exposed to clients.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
