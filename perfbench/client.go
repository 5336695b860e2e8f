package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"after/internal/dataset"
	"after/internal/geom"
	"after/internal/serve"
)

// recorder is a minimal http.ResponseWriter: the benchmark calls the
// daemon's handler in-process, so the response never touches a socket.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
	// took is how long the daemon's handler ran.
	took time.Duration
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// checker collects output-check failures from any goroutine. One failure
// makes the run incorrect; the first few messages are kept for the report.
type checker struct {
	mu    sync.Mutex
	count int
	first []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.first) < 8 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count, append([]string(nil), c.first...)
}

// client drives one serve.Server through its HTTP handler and checks the
// response contract on every reply: each response echoes the X-Request-ID it
// was sent, and every 429/503 carries Retry-After.
type client struct {
	h      http.Handler
	seq    atomic.Uint64
	checks *checker
}

func newClient(h http.Handler, checks *checker) *client {
	return &client{h: h, checks: checks}
}

func (c *client) do(method, path string, body []byte) *recorder {
	id := "pb-" + strconv.FormatUint(c.seq.Add(1), 36)
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		// Paths are built by the benchmark itself; a bad one is a bug.
		panic(err)
	}
	req.Header.Set("X-Request-ID", id)
	req.Header.Set("Content-Type", "application/json")
	w := &recorder{hdr: make(http.Header, 4)}
	start := time.Now()
	c.h.ServeHTTP(w, req)
	w.took = time.Since(start)
	w.WriteHeader(http.StatusOK)
	if got := w.hdr.Get("X-Request-ID"); got != id {
		c.checks.fail("%s %s: X-Request-ID %q not echoed (got %q)", method, path, id, got)
	}
	if (w.code == http.StatusTooManyRequests || w.code == http.StatusServiceUnavailable) && w.hdr.Get("Retry-After") == "" {
		c.checks.fail("%s %s: %d without Retry-After", method, path, w.code)
	}
	return w
}

// recReply is the part of a recommendation response the benchmark checks.
type recReply struct {
	Room     string `json:"room"`
	Target   int    `json:"target"`
	Step     int    `json:"step"`
	Rendered []int  `json:"rendered"`
	ServedBy string `json:"served_by"`
	Fresh    bool   `json:"fresh"`
}

// checkRendered enforces the rendered-set contract: indices in [0, n), the
// target itself never rendered, no index twice.
func checkRendered(rendered []int, n, target int) error {
	seen := make(map[int]bool, len(rendered))
	for _, w := range rendered {
		switch {
		case w < 0 || w >= n:
			return fmt.Errorf("rendered index %d outside [0, %d)", w, n)
		case w == target:
			return fmt.Errorf("target %d rendered for itself", target)
		case seen[w]:
			return fmt.Errorf("rendered index %d repeated", w)
		}
		seen[w] = true
	}
	return nil
}

// recommend sends one recommendation request with a budget of deadlineMs
// and classifies the reply; it also returns how long the daemon's handler
// ran.
func (c *client) recommend(rm *roomInput, target int, deadlineMs int) (outcome, recReply, time.Duration) {
	body := make([]byte, 0, 40)
	body = append(body, `{"target":`...)
	body = strconv.AppendInt(body, int64(target), 10)
	body = append(body, `,"deadline_ms":`...)
	body = strconv.AppendInt(body, int64(deadlineMs), 10)
	body = append(body, '}')
	w := c.do(http.MethodPost, rm.recPath, body)
	var rep recReply
	switch w.code {
	case http.StatusOK:
		if err := json.Unmarshal(w.body.Bytes(), &rep); err != nil {
			c.checks.fail("recommend %s/%d: bad body: %v", rm.name, target, err)
			return outError, rep, w.took
		}
		if rep.Room != rm.name || rep.Target != target {
			c.checks.fail("recommend %s/%d: answered for %s/%d", rm.name, target, rep.Room, rep.Target)
			return outError, rep, w.took
		}
		if err := checkRendered(rep.Rendered, rm.n, target); err != nil {
			c.checks.fail("recommend %s/%d: %v", rm.name, target, err)
			return outError, rep, w.took
		}
		if !rep.Fresh {
			return outStale, rep, w.took
		}
		return outGood, rep, w.took
	case http.StatusTooManyRequests:
		return outShedRoom, rep, w.took
	case http.StatusServiceUnavailable:
		if strings.Contains(w.body.String(), "deadline expired") {
			return outExpired, rep, w.took
		}
		return outShedGlobal, rep, w.took
	default:
		return outError, rep, w.took
	}
}

// frame posts frame k of the room's replayed trajectory. It reports whether
// the post succeeded (200 with an acknowledgement) and how long the
// daemon's handler ran.
func (c *client) frame(rm *roomInput, k int) (bool, time.Duration) {
	w := c.do(http.MethodPost, rm.framePath, rm.frameBody(k))
	if w.code != http.StatusOK {
		return false, w.took
	}
	var ack serve.FrameAck
	if err := json.Unmarshal(w.body.Bytes(), &ack); err != nil || ack.Room != rm.name || ack.Index != k {
		c.checks.fail("frame %s/%d: bad acknowledgement %q", rm.name, k, w.body.String())
		return false, w.took
	}
	return true, w.took
}

// createRoom posts the room's spec; the server generates the same room the
// client generated, so the replayed trajectory is the room's own.
func (c *client) createRoom(rm *roomInput) error {
	body, err := json.Marshal(rm.spec)
	if err != nil {
		return err
	}
	w := c.do(http.MethodPost, "/v1/rooms", body)
	if w.code != http.StatusCreated {
		return fmt.Errorf("create room %s: status %d: %s", rm.name, w.code, strings.TrimSpace(w.body.String()))
	}
	return nil
}

// roomInput is one room as the load generator sees it: the spec it creates
// the room with, and that room's crowd trajectory pre-encoded as frame
// bodies, so sending a frame costs a copy, not a JSON encode.
type roomInput struct {
	name      string
	n         int
	spec      serve.RoomSpec
	pos       [][]geom.Vec2 // trajectory positions per step
	posJSON   [][]byte      // pos[i] encoded as [[x,z],...]
	recPath   string
	framePath string
}

// platformUsers mirrors serve.CreateRoom's platform-graph sizing, so the
// client-side generator reproduces the server's room exactly.
func platformUsers(n int) int {
	p := 10 * n
	if p < 200 {
		p = 200
	}
	if p > 3000 {
		p = 3000
	}
	return p
}

func newRoomInput(name string, users, horizon int, seed int64) (*roomInput, error) {
	spec := serve.RoomSpec{Name: name, Kind: "timik", Users: users, Seed: seed, Horizon: horizon}
	room, err := dataset.Generate(dataset.Config{
		Kind:          dataset.Timik,
		PlatformUsers: platformUsers(users),
		RoomUsers:     users,
		T:             horizon,
		Seed:          seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate room %s: %w", name, err)
	}
	rm := &roomInput{
		name:      name,
		n:         users,
		spec:      spec,
		pos:       room.Traj.Pos,
		recPath:   "/v1/rooms/" + name + "/recommend",
		framePath: "/v1/rooms/" + name + "/frames",
	}
	for _, step := range room.Traj.Pos {
		b := make([]byte, 0, 40*len(step))
		b = append(b, '[')
		for i, p := range step {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, p.Z, 'g', -1, 64)
			b = append(b, ']')
		}
		b = append(b, ']')
		rm.posJSON = append(rm.posJSON, b)
	}
	return rm, nil
}

// positionsAt is the position snapshot frame k carries: the trajectory
// replays cyclically.
func (r *roomInput) positionsAt(k int) []geom.Vec2 { return r.pos[k%len(r.pos)] }

func (r *roomInput) frameBody(k int) []byte {
	p := r.posJSON[k%len(r.posJSON)]
	b := make([]byte, 0, len(p)+40)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"positions":`...)
	b = append(b, p...)
	return append(b, '}')
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
