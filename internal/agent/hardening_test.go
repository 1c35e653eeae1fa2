package agent

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
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
