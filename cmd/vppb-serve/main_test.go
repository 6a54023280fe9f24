package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vppb"
	"vppb/internal/serve"
)

func traceBytes(t *testing.T) []byte {
	t.Helper()
	log, err := vppb.RecordWorkload("example", vppb.WorkloadParams{Scale: 0.2, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	return vppb.MarshalLogText(log)
}

// TestServeEndToEnd boots the daemon on an ephemeral port, runs the
// repeat-POST cache proof over real TCP, and exercises the graceful
// shutdown path via SIGTERM.
func TestServeEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	var stderr bytes.Buffer
	var mu sync.Mutex // stderr is written by the server goroutine
	lockedStderr := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return stderr.Write(p)
	})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, io.Discard, lockedStderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// Readiness probe.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// The cache proof over real TCP: identical bodies, miss then hit.
	raw := traceBytes(t)
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/predict?cpus=1,2,4", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp1, body1 := post()
	resp2, body2 := post()
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if resp1.Header.Get("X-Vppb-Cache") != "miss" || resp2.Header.Get("X-Vppb-Cache") != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit",
			resp1.Header.Get("X-Vppb-Cache"), resp2.Header.Get("X-Vppb-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("bodies differ:\n--- first\n%s--- second\n%s", body1, body2)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"vppb_profile_cache_hits_total 1", "vppb_profile_cache_misses_total 1"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}

	// Graceful shutdown: SIGTERM to ourselves reaches the daemon's
	// NotifyContext; run must drain and return nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never completed")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(stderr.String(), "drained") {
		t.Fatalf("stderr lacks the drain confirmation:\n%s", stderr.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestUsageErrorsExitStatusTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-entries", "0"},
		{"-max-body", "0"},
		{"-timeout", "-5s"},
		{"-no-such-flag"},
		{"stray-arg"},
		{"-peers", "a:1"},
		{"-self", "a:1"},
	} {
		err := run(args, io.Discard, io.Discard, nil)
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("args %v: exitCode = %d, want 2", args, code)
		}
	}
}

func TestRuntimeErrorExitStatusOne(t *testing.T) {
	// A busy/unbindable address is a runtime failure, not a usage error.
	err := run([]string{"-addr", "256.256.256.256:1"}, io.Discard, io.Discard, nil)
	if err == nil {
		t.Fatal("impossible address accepted")
	}
	if code := exitCode(err); code != 1 {
		t.Fatalf("exitCode = %d, want 1", code)
	}
}

// startDaemon re-executes the test binary as a real vppb-serve process
// (child mode below) and returns the command plus the bound address
// parsed from its startup banner.
func startDaemon(t *testing.T, storeDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestKillAndRestartReplaysFromStore")
	cmd.Env = append(os.Environ(), "VPPB_SERVE_CHILD=1", "VPPB_SERVE_STORE_DIR="+storeDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	// The banner is "vppb-serve: listening on 127.0.0.1:PORT (...)".
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					addrCh <- rest[:j]
					break
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never announced its address")
		return nil, ""
	}
}

// terminate SIGTERMs a daemon child and requires a clean (drained) exit.
func terminate(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly after SIGTERM: %v", err)
	}
}

// TestKillAndRestartReplaysFromStore is the durability proof at the
// process level: upload a trace to a real vppb-serve process, SIGTERM it,
// start a fresh process on the same -store-dir, and demand the digest
// reference replay byte-identically — served as a cache hit, without the
// client ever re-uploading the bytes.
func TestKillAndRestartReplaysFromStore(t *testing.T) {
	if os.Getenv("VPPB_SERVE_CHILD") == "1" {
		os.Args = []string{"vppb-serve",
			"-addr", "127.0.0.1:0",
			"-store-dir", os.Getenv("VPPB_SERVE_STORE_DIR"),
			"-drain", "10s"}
		main()
		return
	}
	storeDir := t.TempDir()
	raw := traceBytes(t)
	digest := serve.Digest(raw)

	cmd1, addr1 := startDaemon(t, storeDir)
	resp1, err := http.Post("http://"+addr1+"/v1/predict?cpus=1,2", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body1, _ := io.ReadAll(resp1.Body)
	resp1.Body.Close()
	if resp1.StatusCode != 200 {
		t.Fatalf("upload: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Vppb-Cache"); got != "miss" {
		t.Fatalf("upload cache header = %q, want miss", got)
	}
	terminate(t, cmd1)

	cmd2, addr2 := startDaemon(t, storeDir)
	resp2, err := http.Post("http://"+addr2+"/v1/predict?cpus=1,2&trace="+digest, "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("replay after restart: %d %s", resp2.StatusCode, body2)
	}
	// The restarted daemon already has the trace: a hit, not a re-upload.
	if got := resp2.Header.Get("X-Vppb-Cache"); got != "hit" {
		t.Fatalf("replay cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("prediction changed across restart:\n--- before\n%s--- after\n%s", body1, body2)
	}
	terminate(t, cmd2)
}

// TestUnwritableStoreDirExitsOne: a -store-dir the daemon cannot create
// (here: a path through a plain file, which fails even for root, unlike
// permission bits) must refuse startup with a clean runtime error — exit
// status 1, no panic, no listener.
func TestUnwritableStoreDirExitsOne(t *testing.T) {
	if os.Getenv("VPPB_SERVE_BADSTORE") == "1" {
		os.Args = []string{"vppb-serve", "-store-dir", os.Getenv("VPPB_SERVE_STORE_DIR")}
		main()
		return
	}
	plain := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestUnwritableStoreDirExitsOne")
	cmd.Env = append(os.Environ(),
		"VPPB_SERVE_BADSTORE=1",
		"VPPB_SERVE_STORE_DIR="+filepath.Join(plain, "store"))
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err=%v output=%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1 (runtime error)\n%s", code, out)
	}
	if strings.Contains(string(out), "panic") {
		t.Fatalf("daemon panicked instead of failing cleanly:\n%s", out)
	}
	if !strings.Contains(string(out), "vppb-serve:") {
		t.Fatalf("diagnostic missing:\n%s", out)
	}
}

// TestMainExitCodeUsageError re-executes the binary with a bad flag to
// assert the process-level contract: exit status 2.
func TestMainExitCodeUsageError(t *testing.T) {
	if os.Getenv("VPPB_SERVE_USAGE_TEST") == "1" {
		os.Args = []string{"vppb-serve", "-cache-entries", "0"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMainExitCodeUsageError")
	cmd.Env = append(os.Environ(), "VPPB_SERVE_USAGE_TEST=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want non-zero exit, got err=%v output=%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(string(out), "vppb-serve:") {
		t.Fatalf("diagnostic missing:\n%s", out)
	}
}
