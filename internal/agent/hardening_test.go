package agent

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPanickingFuncFailsTheTaskOnly: a function that panics reports
// failed over REST with one core, and the same worker serves the next
// request.
func TestPanickingFuncFailsTheTaskOnly(t *testing.T) {
	reg := testRegistry()
	reg.Register("explode", func([]json.RawMessage) (json.RawMessage, error) { panic("kaboom") })
	a := startAgent(t, Config{Registry: reg, Cores: 1})
	c := NewClient(0, time.Millisecond)

	id, err := c.Submit(a.URL(), "explode", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(a.URL(), id); err == nil || !strings.Contains(err.Error(), ErrTaskPanic.Error()) {
		t.Fatalf("err = %v, want the panic reported as the task's failure", err)
	}
	if st, _ := a.Status(id); st.State != StateFailed || !strings.Contains(st.Error, "kaboom") {
		t.Fatalf("status = %+v, want failed carrying the panic value", st)
	}
	res, err := c.Run(a.URL(), "square", []json.RawMessage{arg(t, 5)})
	if err != nil || string(res) != "25" {
		t.Fatalf("request after the panic: %s %v", res, err)
	}
	if h := a.health(); h.Busy != 0 {
		t.Fatalf("worker still marked busy after the panic: %+v", h)
	}
}

// TestSlowHeaderConnectionIsDropped: a client that opens a connection
// and never finishes its request headers (slow loris) is disconnected
// after readHeaderTimeout instead of holding the socket forever.
func TestSlowHeaderConnectionIsDropped(t *testing.T) {
	t.Parallel()
	a := startAgent(t, Config{})
	conn, err := net.Dial("tcp", a.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /task HTTP/1.1\r\nHost: agent\r\nX-Drip: "); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	_, err = conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept a header-less connection open past readHeaderTimeout (%v)", readHeaderTimeout)
	}
}

// TestResourcesRejectsOversizedBody: POST /resources reads at most
// maxBodyBytes, so a document padded past the limit is a bad request and
// changes nothing.
func TestResourcesRejectsOversizedBody(t *testing.T) {
	a := startAgent(t, Config{Cores: 1})
	body := io.MultiReader(
		strings.NewReader(`{"pad":"`),
		strings.NewReader(strings.Repeat("x", maxBodyBytes)),
		strings.NewReader(`","addCores":2}`),
	)
	resp, err := http.Post(a.URL()+"/resources", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if h := a.health(); h.Cores != 1 {
		t.Fatalf("cores = %d after a rejected request, want 1", h.Cores)
	}
}

// TestFinishedTasksAreForgottenPastTheRing: the status table holds the
// in-flight tasks plus the last retainFinished finished ones, however many
// were served; an evicted ID is the same 404 as one never issued.
func TestFinishedTasksAreForgottenPastTheRing(t *testing.T) {
	a := startAgent(t, Config{Name: "books", Cores: 4})
	const callers = 8
	total := 3 * retainFinished
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/callers; i++ {
				if _, err := a.RunLocal("square", []json.RawMessage{json.RawMessage("2")}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	a.mu.Lock()
	held := len(a.tasks)
	a.mu.Unlock()
	if held > retainFinished {
		t.Fatalf("%d statuses held after %d tasks with none in flight, want at most %d", held, total, retainFinished)
	}
	for id, want := range map[string]int{
		fmt.Sprintf("books-t%d", total): http.StatusOK,       // the newest
		"books-t1":                      http.StatusNotFound, // the oldest: evicted
		"books-t0":                      http.StatusNotFound, // never issued
	} {
		resp, err := http.Get(a.URL() + "/task/" + id)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /task/%s = %d, want %d", id, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(a.URL() + "/tasks")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var list []TaskStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || len(list) != held {
		t.Fatalf("/tasks lists %d statuses (%v), want the %d retained", len(list), err, held)
	}
}

// TestCloseIsBoundedByItsDeadline: a connection stuck mid-request and a
// function that never returns cannot hold Close past closeDeadline; the
// connection is dropped and the blocked RunLocal caller gets ErrClosed.
func TestCloseIsBoundedByItsDeadline(t *testing.T) {
	reg := testRegistry()
	never := make(chan struct{})
	defer close(never)
	reg.Register("stuck", func([]json.RawMessage) (json.RawMessage, error) {
		<-never
		return nil, nil
	})
	a := startAgent(t, Config{Registry: reg, Cores: 1})

	conn, err := net.Dial("tcp", a.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Complete headers, then half of the promised body: the server is
	// inside the handler, reading, with readTimeout (30s) to go.
	if _, err := io.WriteString(conn, "POST /task HTTP/1.1\r\nHost: agent\r\nContent-Length: 64\r\n\r\n{\"name\":"); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := a.RunLocal("stuck", nil)
		blocked <- err
	}()
	eventually(t, "the stuck function occupies the worker", func() bool { return a.health().Busy == 1 })

	start := time.Now()
	a.Close()
	if took := time.Since(start); took > closeDeadline+500*time.Millisecond {
		t.Fatalf("Close took %v, deadline is %v", took, closeDeadline)
	}
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked RunLocal returned %v, want ErrClosed", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("the half-sent request's connection is still open after Close")
		}
	}
}

// TestResourcesCapsTheWorkerPool: POST /resources grows the pool up to
// maxWorkers and not one past it, and /health reports what was granted.
func TestResourcesCapsTheWorkerPool(t *testing.T) {
	a := startAgent(t, Config{Cores: 2})
	for _, step := range []struct {
		add, status, cores int
	}{
		{maxWorkers - 1, http.StatusBadRequest, 2},     // 2 + 1023 > 1024
		{int(^uint(0) >> 1), http.StatusBadRequest, 2}, // must not overflow the sum
		{maxWorkers - 2, http.StatusOK, maxWorkers},    // exactly the cap
		{1, http.StatusBadRequest, maxWorkers},         // one past it
	} {
		resp, err := http.Post(a.URL()+"/resources", "application/json",
			strings.NewReader(fmt.Sprintf(`{"addCores":%d}`, step.add)))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != step.status {
			t.Fatalf("addCores %d: status %d, want %d", step.add, resp.StatusCode, step.status)
		}
		if h := a.health(); h.Cores != step.cores {
			t.Fatalf("addCores %d: cores = %d, want %d", step.add, h.Cores, step.cores)
		}
	}
}

// TestWrongMethodIs405: every route answers a method it does not serve
// with 405, from the mux's method patterns rather than per-handler checks.
func TestWrongMethodIs405(t *testing.T) {
	a := startAgent(t, Config{Name: "m"})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/task"},
		{http.MethodPost, "/task/m-t1"},
		{http.MethodPost, "/tasks"},
		{http.MethodGet, "/resources"},
	} {
		req, err := http.NewRequest(probe.method, a.URL()+probe.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", probe.method, probe.path, resp.StatusCode)
		}
	}
}
