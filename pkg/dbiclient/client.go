// Package dbiclient is the Go client for dbiserved: a binary-protocol
// Client over one TCP connection (reused across calls, pipelinable via
// Pipeline) and a JSONClient speaking the HTTP v1 protocol through a
// keep-alive http.Client. Both implement the same five operations and
// must observe identical answers — the differential test in
// internal/dbiserve holds them to that.
package dbiclient

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"dbisim/pkg/dbi"
	"dbisim/pkg/dbiproto"
)

// Client speaks the binary batch protocol over one connection. A
// Client is safe for concurrent use: calls are serialized on the
// connection (use one Client per goroutine, or Pipeline, for
// parallelism — the protocol answers in order).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	seq  uint32
	rbuf []byte
	wbuf []byte
	fbuf []byte
}

// Dial connects to a dbiserved binary listener.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		br:   bufio.NewReaderSize(conn, 64<<10),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// deadline applies ctx's deadline to the whole exchange.
func (c *Client) deadline(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok {
		return c.conn.SetDeadline(d)
	}
	return c.conn.SetDeadline(time.Time{})
}

// roundTrip sends one request and reads its response body (status
// already checked). The returned bytes alias c.rbuf — decode before
// the next call.
func (c *Client) roundTrip(ctx context.Context, op byte, keys []uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.deadline(ctx); err != nil {
		return nil, err
	}
	c.seq++
	seq := c.seq
	var payload []byte
	if keys != nil {
		c.wbuf = dbiproto.AppendKeys(c.wbuf[:0], keys)
		payload = c.wbuf
	}
	c.fbuf = dbiproto.AppendFrame(c.fbuf[:0], dbiproto.Frame{
		Version: dbiproto.Version, Op: op, Seq: seq, Payload: payload,
	})
	if err := c.send(c.fbuf); err != nil {
		return nil, err
	}
	payload, err := c.readAnswer(op, seq)
	if err != nil {
		return nil, err
	}
	return dbiproto.DecodeStatus(payload)
}

// send writes request frames. A failed write may have sent part of
// them, so it closes the connection, as readAnswer does.
func (c *Client) send(frames []byte) error {
	_, err := c.bw.Write(frames)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		c.conn.Close()
	}
	return err
}

// readAnswer reads the next answer frame, which must answer op with
// seq, and returns its payload. Any failure here — an I/O error, an
// expired deadline, a malformed frame or the answer to another request
// — leaves the stream out of step, so it closes the connection: later
// calls then fail instead of reading an answer meant for this one.
func (c *Client) readAnswer(op byte, seq uint32) ([]byte, error) {
	f, buf, err := dbiproto.ReadFrame(c.br, c.rbuf)
	c.rbuf = buf
	if err == nil && (f.Op != op|dbiproto.RespBit || f.Seq != seq) {
		err = fmt.Errorf("dbiclient: response mismatch: op %#x seq %d, want op %#x seq %d",
			f.Op, f.Seq, op|dbiproto.RespBit, seq)
	}
	if err != nil {
		c.conn.Close()
		return nil, err
	}
	return f.Payload, nil
}

// Ping round-trips an empty frame.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, dbiproto.OpPing, nil)
	return err
}

// SetDirty marks keys dirty and returns the keys evicted doing so.
func (c *Client) SetDirty(ctx context.Context, keys []uint64) ([]uint64, error) {
	body, err := c.roundTrip(ctx, dbiproto.OpSet, keys)
	if err != nil {
		return nil, err
	}
	out, _, err := dbiproto.DecodeKeys(body, nil)
	return out, err
}

// IsDirty reports each key's dirty status, in order.
func (c *Client) IsDirty(ctx context.Context, keys []uint64) ([]bool, error) {
	body, err := c.roundTrip(ctx, dbiproto.OpIsDirty, keys)
	if err != nil {
		return nil, err
	}
	out, _, err := dbiproto.DecodeBools(body, nil)
	return out, err
}

// Region returns the dirty keys co-located in each key's row.
func (c *Client) Region(ctx context.Context, keys []uint64) ([]uint64, error) {
	body, err := c.roundTrip(ctx, dbiproto.OpRegion, keys)
	if err != nil {
		return nil, err
	}
	out, _, err := dbiproto.DecodeKeys(body, nil)
	return out, err
}

// FlushRows flushes each key's row, returning all harvested keys.
func (c *Client) FlushRows(ctx context.Context, keys []uint64) ([]uint64, error) {
	body, err := c.roundTrip(ctx, dbiproto.OpFlush, keys)
	if err != nil {
		return nil, err
	}
	out, _, err := dbiproto.DecodeKeys(body, nil)
	return out, err
}

// Stats fetches the tracker snapshot.
func (c *Client) Stats(ctx context.Context) (dbi.Stats, error) {
	body, err := c.roundTrip(ctx, dbiproto.OpStats, nil)
	if err != nil {
		return dbi.Stats{}, err
	}
	var st dbi.Stats
	err = json.Unmarshal(body, &st)
	return st, err
}

// --- pipelining ----------------------------------------------------

// Pipeline queues several requests and sends them as one write; the
// server answers in order, so the whole batch costs one round trip.
// Queue ops, then Do; Do empties the pipeline, which can then be
// filled again. A Pipeline is not safe for concurrent use.
type Pipeline struct {
	c    *Client
	wire []byte
	ops  []byte
	seqs []uint32
}

// Pipeline starts an empty pipeline on c.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Len reports the number of queued requests.
func (p *Pipeline) Len() int { return len(p.ops) }

func (p *Pipeline) queue(op byte, keys []uint64) {
	p.c.mu.Lock()
	p.c.seq++
	seq := p.c.seq
	p.c.mu.Unlock()
	var payload []byte
	if keys != nil {
		payload = dbiproto.AppendKeys(nil, keys)
	}
	p.wire = dbiproto.AppendFrame(p.wire, dbiproto.Frame{
		Version: dbiproto.Version, Op: op, Seq: seq, Payload: payload,
	})
	p.ops = append(p.ops, op)
	p.seqs = append(p.seqs, seq)
}

// SetDirty queues a set request.
func (p *Pipeline) SetDirty(keys []uint64) { p.queue(dbiproto.OpSet, keys) }

// IsDirty queues a dirty query.
func (p *Pipeline) IsDirty(keys []uint64) { p.queue(dbiproto.OpIsDirty, keys) }

// Region queues a region query.
func (p *Pipeline) Region(keys []uint64) { p.queue(dbiproto.OpRegion, keys) }

// FlushRows queues a flush.
func (p *Pipeline) FlushRows(keys []uint64) { p.queue(dbiproto.OpFlush, keys) }

// Result is one queued request's answer: Keys for set/region/flush,
// Dirty for dirty queries.
type Result struct {
	Op    byte
	Keys  []uint64
	Dirty []bool
}

// Do writes every queued frame in one burst and collects the answers
// in queue order, emptying the pipeline whatever happens. An answer
// with an error status does not stop it: Do reads every remaining
// answer, so the connection stays in step, and returns the answers
// before the failed one with the first *dbiproto.StatusError. A
// transport failure closes the connection (see readAnswer).
func (p *Pipeline) Do(ctx context.Context) ([]Result, error) {
	c := p.c
	wire, ops, seqs := p.wire, p.ops, p.seqs
	p.wire, p.ops, p.seqs = wire[:0], ops[:0], seqs[:0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.deadline(ctx); err != nil {
		return nil, err
	}
	if err := c.send(wire); err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(ops))
	var failed error
	for i, op := range ops {
		payload, err := c.readAnswer(op, seqs[i])
		if err != nil {
			return results, err
		}
		if failed != nil {
			continue
		}
		r := Result{Op: op}
		body, err := dbiproto.DecodeStatus(payload)
		switch {
		case err != nil:
		case op == dbiproto.OpIsDirty:
			r.Dirty, _, err = dbiproto.DecodeBools(body, nil)
		default:
			r.Keys, _, err = dbiproto.DecodeKeys(body, nil)
		}
		if err != nil {
			failed = err
			continue
		}
		results = append(results, r)
	}
	return results, failed
}
