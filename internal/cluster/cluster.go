// Package cluster implements the distributed CPU backend of PyTFHE over
// real TCP sockets — the role Ray plays in the paper. A Coordinator listens
// for Worker connections, broadcasts the public evaluation key once, then
// drives the wavefront schedule of Algorithm 1 as the levels of a compiled
// plan with compile-time placement: the plan is cut into one shard per
// worker (internal/shard), each shard ships once and stays cached on its
// worker by content hash, and per run only input and cross-shard boundary
// ciphertexts travel (≈2.46 KB each, the unit of the paper's Fig. 7
// communication profile). See DESIGN.md §14.
//
// Messages are framed with encoding/gob. Workers may host multiple slots
// (cores); each slot owns a gate engine over the shared cloud key.
package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pytfhe/internal/qos"
	"pytfhe/internal/shard"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/wire"
)

func init() { wire.Register() }

// ProtoVersion is the coordinator↔worker protocol revision. Version 2
// added the Welcome handshake (version + key-hash check) and the sharded
// plan-replay messages; version 3 removed per-gate job dispatch. Peers of
// another version are rejected with a typed error instead of a gob decode
// failure or an "unexpected message" downstream.
const ProtoVersion = 3

// Typed handshake and transport errors. Callers match with errors.Is.
var (
	// ErrWorkerLost marks a worker that died mid-run (connection error or
	// a missed read deadline). The coordinator drops the worker and
	// re-hosts its shards on the survivors; the error only surfaces when
	// no workers remain.
	ErrWorkerLost = errors.New("cluster: worker lost")
	// ErrDial marks a worker that exhausted its dial-retry budget without
	// ever reaching the coordinator.
	ErrDial = errors.New("cluster: coordinator unreachable")
	// ErrHandshake marks a malformed join: the peer spoke, but not the
	// Hello/Welcome/Key sequence the protocol requires.
	ErrHandshake = errors.New("cluster: handshake failed")
	// ErrVersionMismatch marks a peer running a different ProtoVersion.
	ErrVersionMismatch = errors.New("cluster: protocol version mismatch")
	// ErrKeyMismatch marks a worker whose received cloud key does not hash
	// to the coordinator's advertised key — evaluating under it would
	// produce garbage ciphertexts, so the worker refuses to serve.
	ErrKeyMismatch = errors.New("cluster: cloud key mismatch")
)

// DefaultJobTimeout is the read deadline of one coordinator↔worker exchange
// when Coordinator.JobTimeout is left zero: generous enough for one shard
// level of a wide default128 plan, small enough that a hung worker cannot
// stall a run forever.
const DefaultJobTimeout = 2 * time.Minute

// DefaultDialTimeout bounds a worker's dial-retry loop when
// Worker.DialTimeout is left zero.
const DefaultDialTimeout = 15 * time.Second

// Message is the single wire envelope; exactly one field is set.
type Message struct {
	Hello   *Hello
	Welcome *Welcome
	Key     *boot.CloudKey

	ShardInit  *ShardInit
	ShardData  *shard.Shard
	ShardReady *ShardReady
	Step       *ShardStep
	StepResult *ShardStepResult
	Replay     *ShardReplay

	Error string
	Bye   bool
}

// Hello announces a worker: its slot (core) count and protocol version.
type Hello struct {
	Slots   int
	Version int
}

// Welcome acknowledges a Hello before the key broadcast. KeyHash lets the
// worker verify the key it is about to receive matches what the
// coordinator's clients encrypted against.
type Welcome struct {
	Version int
	KeyHash string
}

// Stats summarizes a distributed run. Levels, Gates and Bootstraps are
// what the compiled plan executes (after deduplication), not the
// netlist's logical counts. BytesSent is the paper's Fig. 7 style estimate
// — params.CiphertextBytes per input or boundary ciphertext shipped to a
// worker; the WireBytes counters are measured at the socket via
// wire.Meter, so framing and shard shipment show up there but not in the
// estimate.
type Stats struct {
	Workers     int
	Slots       int
	Levels      int
	Gates       int
	Bootstraps  int
	WorkersLost int // workers dropped mid-run (their shards re-hosted on survivors)
	Elapsed     time.Duration
	BytesSent   int64 // ciphertext payload shipped to workers (estimate)

	SamplesSent     int64 // ciphertexts shipped to workers this run
	SamplesReceived int64 // ciphertexts returned by workers this run
	WireBytesSent   int64 // measured bytes written to worker sockets
	WireBytesRecv   int64 // measured bytes read from worker sockets

	ShardHits         int   // shards already resident on their worker
	ShardMisses       int   // shards shipped because the worker lacked them
	ShardReships      int   // shards re-installed on a survivor after a loss
	ShardBytesShipped int64 // measured bytes of shard program shipment
	BoundaryBytes     int64 // estimated input+boundary ciphertext traffic
}

// Totals aggregates counters across every run of a coordinator's lifetime;
// the serve daemon reports them in its Stats RPC.
type Totals struct {
	ShardRuns     int64
	ShardHits     int64
	ShardMisses   int64
	ShardReships  int64
	WireBytesSent int64
	WireBytesRecv int64
	BoundaryBytes int64
	WorkersLost   int64
}

// Coordinator owns the listening socket and the connected workers.
type Coordinator struct {
	ck       *boot.CloudKey
	keyHash  string
	ln       net.Listener
	mu       sync.Mutex
	workers  []*workerConn
	pending  []*workerConn // greeted before the key was bound (serve path)
	plans    *qos.LRU      // "<netlist address>/<worker count>" → *shardPlan
	totals   Totals
	LastStat Stats
	// JobTimeout is the read deadline of one exchange with a worker (its
	// Hello, a shard install or one level step; a recovery replay gets one
	// per replayed level). A peer that misses it in the handshake is
	// rejected; a worker that misses it mid-run is declared lost and its
	// shards are re-hosted on the survivors. Zero means DefaultJobTimeout.
	JobTimeout time.Duration
}

type workerConn struct {
	conn  net.Conn
	meter *wire.Meter
	enc   *gob.Encoder
	dec   *gob.Decoder
	slots int
}

// NewCoordinator starts listening on addr (e.g. "127.0.0.1:0"). The cloud
// key is broadcast to every worker as it joins.
func NewCoordinator(ck *boot.CloudKey, addr string) (*Coordinator, error) {
	c, err := NewPendingCoordinator(addr)
	if err != nil {
		return nil, err
	}
	if err := c.SetKey(ck); err != nil {
		return nil, errors.Join(err, c.ln.Close())
	}
	return c, nil
}

// NewPendingCoordinator starts listening without a cloud key. Workers that
// join before SetKey are parked after their Hello and complete the
// handshake the moment the key binds — the daemon path, where the key
// arrives with the first client session.
func NewPendingCoordinator(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	return &Coordinator{ln: ln, plans: qos.NewLRU(planCacheEntries)}, nil
}

// SetKey binds the cloud key and completes the handshake of every parked
// worker. Binding a second, different key is an error; rebinding the same
// key is a no-op.
func (c *Coordinator) SetKey(ck *boot.CloudKey) error {
	if ck == nil {
		return fmt.Errorf("%w: nil cloud key", ErrHandshake)
	}
	hash, err := wire.KeyHash(ck)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.ck != nil {
		prev := c.keyHash
		c.mu.Unlock()
		if prev != hash {
			return fmt.Errorf("%w: coordinator already bound to a different key", ErrKeyMismatch)
		}
		return nil
	}
	c.ck = ck
	c.keyHash = hash
	c.mu.Unlock()
	c.drainPending()
	return nil
}

// Addr returns the coordinator's listening address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// greet wraps a fresh connection in a byte meter and validates its Hello,
// which must arrive within the job timeout: a peer that connects and never
// speaks cannot hold a join forever. A peer that fails is closed.
func (c *Coordinator) greet(conn net.Conn) (w *workerConn, err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, conn.Close())
		}
	}()
	m := wire.NewMeter(conn)
	w = &workerConn{conn: conn, meter: m, enc: gob.NewEncoder(m), dec: gob.NewDecoder(m)}
	hello, err := receive(w, c.jobTimeout())
	if err != nil || hello.Hello == nil {
		return nil, fmt.Errorf("%w: bad hello from %s: %v", ErrHandshake, conn.RemoteAddr(), err)
	}
	if v := hello.Hello.Version; v != ProtoVersion {
		// Best-effort courtesy note; the typed error is the real signal.
		//lint:ignore discarded-error the peer is being rejected either way
		w.enc.Encode(Message{Error: fmt.Sprintf("protocol version %d, want %d", v, ProtoVersion)})
		return nil, fmt.Errorf("%w: worker %s speaks v%d, coordinator v%d", ErrVersionMismatch, conn.RemoteAddr(), v, ProtoVersion)
	}
	w.slots = hello.Hello.Slots
	if w.slots < 1 {
		w.slots = 1
	}
	return w, nil
}

// finishJoin completes a greeted worker's handshake: Welcome, then the key
// broadcast, then roster admission. A peer that fails is closed.
func (c *Coordinator) finishJoin(w *workerConn) (err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, w.conn.Close())
		}
	}()
	c.mu.Lock()
	ck, hash := c.ck, c.keyHash
	c.mu.Unlock()
	if err := w.enc.Encode(Message{Welcome: &Welcome{Version: ProtoVersion, KeyHash: hash}}); err != nil {
		return fmt.Errorf("%w: welcome to %s: %v", ErrHandshake, w.conn.RemoteAddr(), err)
	}
	if err := w.enc.Encode(Message{Key: ck}); err != nil {
		return fmt.Errorf("%w: key broadcast to %s: %v", ErrHandshake, w.conn.RemoteAddr(), err)
	}
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	return nil
}

// AcceptWorkers blocks until n workers have joined (each already holding
// the broadcast key). It requires the key to be bound.
func (c *Coordinator) AcceptWorkers(n int) error {
	c.mu.Lock()
	keyed := c.ck != nil
	c.mu.Unlock()
	if !keyed {
		return fmt.Errorf("%w: AcceptWorkers before SetKey", ErrHandshake)
	}
	for c.WorkerCount() < n {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: accept: %w", err)
		}
		w, err := c.greet(conn)
		if err != nil {
			return err
		}
		if err := c.finishJoin(w); err != nil {
			return err
		}
	}
	return nil
}

// ServeJoins accepts workers in the background until the listener closes.
// Workers greeted before the key binds are parked; SetKey drains them. Use
// WaitWorkers to block until a quorum is live. Intended for the daemon,
// where joins and key binding race.
func (c *Coordinator) ServeJoins() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed: Coordinator.Close
		}
		go func(conn net.Conn) {
			w, err := c.greet(conn)
			if err != nil {
				return // greet closed the peer
			}
			c.mu.Lock()
			c.pending = append(c.pending, w)
			c.mu.Unlock()
			c.drainPending()
		}(conn)
	}
}

// drainPending completes the handshake of every parked worker once the key
// is bound. A peer that fails here was never admitted and finishJoin has
// closed it; nothing waits on its error, so the others simply carry on.
func (c *Coordinator) drainPending() {
	c.mu.Lock()
	if c.ck == nil {
		c.mu.Unlock()
		return
	}
	parked := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, w := range parked {
		if err := c.finishJoin(w); err != nil {
			continue
		}
	}
}

// WaitWorkers blocks until at least n workers are on the roster or the
// context expires.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.WorkerCount() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %d of %d workers joined: %w", c.WorkerCount(), n, ctx.Err())
		case <-tick.C:
		}
	}
}

// WorkerCount reports the live roster size.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Totals returns lifetime counters aggregated across runs.
func (c *Coordinator) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// dropWorker removes a dead worker from the roster and closes its
// connection; subsequent dispatch rounds no longer see it.
func (c *Coordinator) dropWorker(w *workerConn) {
	c.mu.Lock()
	for i, cur := range c.workers {
		if cur == w {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	// Audited (see DESIGN.md §13): dropWorker only runs after the
	// connection already failed, so Close can report nothing the caller
	// doesn't know; Coordinator.Close, by contrast, joins every error.
	//lint:ignore discarded-error evicting a dead worker; the close error carries no information
	w.conn.Close()
}

// Close shuts down the coordinator and asks workers to exit. Teardown
// continues past individual failures; every error is reported, joined.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, w := range c.workers {
		if err := w.enc.Encode(Message{Bye: true}); err != nil {
			errs = append(errs, fmt.Errorf("cluster: bye to %s: %w", w.conn.RemoteAddr(), err))
		}
		if err := w.conn.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close %s: %w", w.conn.RemoteAddr(), err))
		}
	}
	c.workers = nil
	for _, w := range c.pending {
		if err := w.conn.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close parked %s: %w", w.conn.RemoteAddr(), err))
		}
	}
	c.pending = nil
	errs = append(errs, c.ln.Close())
	return errors.Join(errs...)
}

// Name identifies the backend in reports.
func (c *Coordinator) Name() string {
	return fmt.Sprintf("cluster(%d workers)", c.WorkerCount())
}

// meterSnap is a per-connection byte-counter snapshot taken at run start;
// the delta at run end (the meter keeps counting even after a drop) is the
// run's measured wire traffic. Workers that join mid-run have no snapshot
// and are skipped.
type meterSnap struct {
	m      *wire.Meter
	r0, w0 int64
}

func (c *Coordinator) snapMeters() []meterSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := make([]meterSnap, 0, len(c.workers))
	for _, w := range c.workers {
		snaps = append(snaps, meterSnap{w.meter, w.meter.BytesRead(), w.meter.BytesWritten()})
	}
	return snaps
}

func settleMeters(snaps []meterSnap, st *Stats) {
	for _, s := range snaps {
		st.WireBytesRecv += s.m.BytesRead() - s.r0
		st.WireBytesSent += s.m.BytesWritten() - s.w0
	}
}

// roster snapshots what a run starts from: the live workers, their total
// slot count, and the per-exchange read deadline.
func (c *Coordinator) roster() (workers []*workerConn, slots int, timeout time.Duration, err error) {
	c.mu.Lock()
	workers = append(workers, c.workers...)
	c.mu.Unlock()
	if len(workers) == 0 {
		return nil, 0, 0, fmt.Errorf("cluster: no workers connected")
	}
	for _, w := range workers {
		slots += w.slots
	}
	return workers, slots, c.jobTimeout(), nil
}

// jobTimeout is the read deadline of one exchange with a worker.
func (c *Coordinator) jobTimeout() time.Duration {
	if c.JobTimeout > 0 {
		return c.JobTimeout
	}
	return DefaultJobTimeout
}

// Worker joins a coordinator and serves shard installs and level steps
// until the connection closes or a Bye message arrives.
type Worker struct {
	slots int
	// DialTimeout bounds the dial-retry loop: the worker keeps redialing
	// with capped exponential backoff until the budget runs out, then
	// fails with ErrDial. Zero means DefaultDialTimeout.
	DialTimeout time.Duration
	// ShardCache caps the cross-run shard cache at this many shards (least
	// recently used evicted first). Zero means DefaultShardCache.
	ShardCache int
}

// DefaultShardCache is the worker's shard-cache capacity when
// Worker.ShardCache is left zero.
const DefaultShardCache = 8

// NewWorker returns a worker that will run shard levels on `slots`
// parallel engines.
func NewWorker(slots int) *Worker {
	if slots < 1 {
		slots = 1
	}
	return &Worker{slots: slots}
}

// dial connects to the coordinator, retrying with capped exponential
// backoff (50 ms doubling to 2 s) so a worker started moments before its
// coordinator — the common orchestration race — joins instead of dying.
func (w *Worker) dial(addr string) (net.Conn, error) {
	budget := w.DialTimeout
	if budget <= 0 {
		budget = DefaultDialTimeout
	}
	deadline := time.Now().Add(budget)
	backoff := 50 * time.Millisecond
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("%w: %s after %s: %v", ErrDial, addr, budget, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// handshake runs the worker side of the join: Hello out, Welcome and
// key in, with version and key-hash checks surfaced as typed errors.
func (w *Worker) handshake(enc *gob.Encoder, dec *gob.Decoder) (*boot.CloudKey, error) {
	if err := enc.Encode(Message{Hello: &Hello{Slots: w.slots, Version: ProtoVersion}}); err != nil {
		return nil, fmt.Errorf("%w: hello: %v", ErrHandshake, err)
	}
	var wel Message
	if err := dec.Decode(&wel); err != nil {
		return nil, fmt.Errorf("%w: no welcome: %v", ErrHandshake, err)
	}
	if wel.Error != "" {
		// A v1 coordinator never sends Welcome; later ones reject a
		// version skew with an Error note before closing.
		return nil, fmt.Errorf("%w: coordinator: %s", ErrVersionMismatch, wel.Error)
	}
	if wel.Welcome == nil {
		return nil, fmt.Errorf("%w: expected welcome, got %+v", ErrHandshake, wel)
	}
	if wel.Welcome.Version != ProtoVersion {
		return nil, fmt.Errorf("%w: coordinator v%d, worker v%d", ErrVersionMismatch, wel.Welcome.Version, ProtoVersion)
	}
	var keyMsg Message
	if err := dec.Decode(&keyMsg); err != nil || keyMsg.Key == nil {
		return nil, fmt.Errorf("%w: expected key broadcast (%v)", ErrHandshake, err)
	}
	// The key came off a socket: check its shape before an engine indexes it.
	if err := keyMsg.Key.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	hash, err := wire.KeyHash(keyMsg.Key)
	if err != nil {
		return nil, err
	}
	if wel.Welcome.KeyHash != "" && hash != wel.Welcome.KeyHash {
		return nil, fmt.Errorf("%w: received key %.16s…, coordinator advertised %.16s…", ErrKeyMismatch, hash, wel.Welcome.KeyHash)
	}
	return keyMsg.Key, nil
}

// Serve dials the coordinator and serves shard requests until shutdown. It
// blocks.
func (w *Worker) Serve(addr string) error {
	conn, err := w.dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	ck, err := w.handshake(enc, dec)
	if err != nil {
		return err
	}
	engines := make([]*gate.Engine, w.slots)
	for i := range engines {
		engines[i] = gate.NewEngine(ck)
	}
	capacity := w.ShardCache
	if capacity < 1 {
		capacity = DefaultShardCache
	}
	shards := qos.NewLRU(int64(capacity)) // hash → *shardEntry, one unit each
	dim := ck.Params.LWEDimension

	for {
		var msg Message
		if err := dec.Decode(&msg); err != nil {
			return nil // connection closed: normal shutdown
		}
		var reply Message
		switch {
		case msg.Bye:
			return nil
		case msg.ShardInit != nil:
			reply = w.handleShardInit(shards, msg.ShardInit)
		case msg.ShardData != nil:
			reply = w.handleShardData(shards, msg.ShardData, dim)
		case msg.Step != nil:
			reply = w.handleStep(shards, engines, msg.Step)
		case msg.Replay != nil:
			reply = w.handleReplay(shards, engines, msg.Replay)
		default:
			reply = Message{Error: "unexpected message"}
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
}
