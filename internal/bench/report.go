package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// Report is the machine-readable envelope for a set of result tables:
// `go run ./cmd/experiments -fig all -json` emits the one committed as
// FIGURES.json at the repository root, and a later run of that command
// on the same host differs from it only in timings.
type Report struct {
	Schema     int      `json:"schema"` // bumped on incompatible changes
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Figures    []*Table `json:"figures"`
}

// NewReport wraps tables in a schema-1 report stamped with the current
// time, toolchain and CPU count.
func NewReport(figures []*Table) *Report {
	return &Report{
		Schema:     1,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Figures:    figures,
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
