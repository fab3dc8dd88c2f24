package main

// The two front doors the workloads drive: the library API (crowddb.DB)
// and the HTTP jobs API on a loopback listener through pkg/client.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"crowddb"
	"crowddb/internal/core"
	"crowddb/internal/server"
	"crowddb/internal/storage"
	"crowddb/pkg/client"
)

// opResult is one statement's outcome as a client saw it.
type opResult struct {
	rows     [][]string
	affected int
	scanned  int           // rows the executor scanned (library only)
	submit   time.Duration // POST round trip (HTTP only)
	total    time.Duration // submit to last row / completion
}

// conn runs one statement through a front door.
type conn interface {
	do(ctx context.Context, sql string) (opResult, error)
}

// libConn executes through the library API, streaming rows through a
// sink.
type libConn struct{ db *crowddb.DB }

func (c libConn) do(ctx context.Context, sql string) (opResult, error) {
	var res opResult
	var rows []storage.Row
	start := time.Now()
	opts := core.DefaultExecOpts()
	opts.Sink = func(r storage.Row) error {
		rows = append(rows, r)
		return nil
	}
	r, err := c.db.ExecuteOpts(ctx, sql, opts)
	res.total = time.Since(start)
	if err != nil {
		return res, err
	}
	res.affected, res.scanned, res.rows = r.Affected, r.Stats.RowsScanned, cells(rows)
	return res, nil
}

// cells renders stored rows as the strings a client compares.
func cells(rows []storage.Row) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = v.String()
		}
	}
	return out
}

// httpConn executes as a v1 job: submit, then stream the NDJSON rows.
type httpConn struct{ cl *client.Client }

func (c httpConn) do(ctx context.Context, sql string) (opResult, error) {
	return c.doTraced(ctx, sql, nil, nil, -1, 0)
}

// doTraced is do with the submit and the stream under spans of request
// req, children of span parent. Crowd decorator spans (probe, when set)
// nest under whichever of the two is open.
func (c httpConn) doTraced(ctx context.Context, sql string, tr *tracer, probe *crowdProbe, parent int, req int64) (opResult, error) {
	var res opResult
	start := time.Now()
	sp := tr.begin("server.submit", parent, req)
	probe.nest(sp)
	job, err := c.cl.Submit(ctx, sql)
	res.submit = time.Since(start)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	sp = tr.begin("server.stream", parent, req)
	probe.nest(sp)
	defer tr.end(sp)
	it, err := job.Rows(ctx)
	if err != nil {
		return res, err
	}
	defer it.Close()
	var rows []client.Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	res.total = time.Since(start)
	if err := it.Err(); err != nil {
		return res, err
	}
	if st := it.FinalState(); st != "done" {
		if je := it.FinalError(); je != nil {
			return res, fmt.Errorf("job %s %s: %w", job.ID(), st, je)
		}
		return res, fmt.Errorf("job %s ended %q", job.ID(), st)
	}
	res.rows = make([][]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j := range row {
			cells[j] = row.Cell(j)
		}
		res.rows[i] = cells
	}
	return res, nil
}

// httpFront serves a server over a loopback listener.
type httpFront struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	conn httpConn
}

func startHTTP(srv *server.Server) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &httpFront{srv: srv, hs: &http.Server{Handler: srv.HTTPHandler()}, done: make(chan error, 1)}
	go func() { f.done <- f.hs.Serve(ln) }()
	f.conn = httpConn{cl: client.New("http://" + ln.Addr().String())}
	return f, nil
}

// stop drains the server's jobs, then closes the listener and waits for
// the serve loop to return.
func (f *httpFront) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if cerr := f.hs.Close(); err == nil {
		err = cerr
	}
	if serr := <-f.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}
