package server

import (
	"context"
	"fmt"
	"io"

	"netupdate/internal/config"
	"netupdate/internal/core"
	"netupdate/internal/tenantspec"
)

// ServeStdio is the stdin/stdout serving surface: it reads a JSONL
// scenario stream (a config.StreamHeader, then one config.StreamDelta
// per line), registers the header as a tenant of the pool, serves every
// delta through Pool.Synthesize, and emits one Result line per delta on
// out. It is what `netupdate -stream` runs — the same pool, admission
// control, and wire format as the daemon, minus HTTP. If out has a
// Flush() error method (a bufio.Writer), every result line is flushed as
// it is produced: the input is read through a pipe, which reports its end
// only on the read after its last line, so it is never known to be used
// up while a line is pending (see serveLines). A client that answers a
// plan with ack lines therefore sees the plan before it sends them.
//
// Shutdown is graceful: when ctx is canceled (the CLI wires SIGINT and
// SIGTERM to it), ServeStdio stops accepting input, lets the in-flight
// synthesis finish, flushes its pending result line, and returns nil.
// Semantically invalid deltas (config.ErrBadDelta) are reported on their
// input line and skipped; only decode errors — after which the stream
// position is unreliable — are terminal, and they too are reported as a
// positioned Result line first.
func ServeStdio(ctx context.Context, in io.Reader, out io.Writer, errw io.Writer, p *Pool, opts core.Options, quiet bool) error {
	// A signal must interrupt the wait for the next line, not just the
	// synthesis between lines, so the input is read through a pipe whose
	// write side closes when ctx is done. The copying goroutine exits on
	// its next read (or stays blocked on a silent stdin until the process
	// exits, holding nothing).
	pr, pw := io.Pipe()
	defer pr.Close()
	go func() {
		_, err := io.Copy(pw, in)
		pw.CloseWithError(err)
	}()
	defer context.AfterFunc(ctx, func() { pw.Close() })()
	var h config.StreamHeader
	dec, line, err := tenantspec.Decode(pr, &h)
	if err != nil {
		return fmt.Errorf("server: stream header (line %d): %w", line, err)
	}
	info, err := p.Register(&TenantSpec{StreamHeader: h, Options: OptionsSpec(opts)})
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(errw, "stream %q: tenant %s, %d switches, %d classes\n",
			info.Name, info.ID, info.Switches, info.Classes)
	}
	// The in-flight synthesis deliberately ignores ctx: a signal stops
	// intake, the current request finishes and its plan line is flushed
	// (the pool's PoolOptions.DefaultTimeout still bounds it).
	// The header's decoder may have read past the header: the request
	// loop reads what it holds, then the rest of the pipe.
	served, err := serveLines(ctx, context.Background(), 0, p, info.ID,
		io.MultiReader(dec.Buffered(), pr), line, out)
	if !quiet {
		if ctx.Err() != nil {
			fmt.Fprintln(errw, "signal: stopped accepting input, draining")
		}
		fmt.Fprintf(errw, "stream done: %d syntheses served\n", served)
	}
	return err
}
