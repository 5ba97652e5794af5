package hierdrl_test

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildHiersim builds the hiersim command into dir and returns its path.
func buildHiersim(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hiersim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hiersim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hiersim: %v\n%s", err, out)
	}
	return bin
}

// waitForFile polls until path exists, failing the test (and killing cmd)
// after 30 s.
func waitForFile(t *testing.T, cmd *exec.Cmd, path string, out *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no snapshot appeared within 30s; partial output:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashResumeHarnessCLI is the end-to-end crash drill: build hiersim,
// run it with periodic checkpointing, SIGKILL it mid-run (no cleanup, no
// signal handler — a real crash), resume from the snapshot file, and require
// the resumed run's printed summary to be byte-identical to an uninterrupted
// reference run.
func TestCrashResumeHarnessCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills child processes")
	}
	dir := t.TempDir()
	bin := buildHiersim(t, dir)

	args := []string{"-system", "round-robin", "-servers", "8", "-jobs", "40000", "-seed", "5"}

	var refOut bytes.Buffer
	ref := exec.Command(bin, args...)
	ref.Stdout = &refOut
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	ck := filepath.Join(dir, "crash.ckpt")
	var crashOut bytes.Buffer
	crash := exec.Command(bin, append(append([]string{}, args...),
		"-checkpoint", ck, "-checkpoint-every", "300")...)
	crash.Stdout = &crashOut
	if err := crash.Start(); err != nil {
		t.Fatalf("start checkpointed run: %v", err)
	}
	// Kill the instant the first snapshot generation lands. If the run
	// finishes before we can kill it, the final snapshot still resumes (to a
	// no-op drain), so the comparison below stays valid either way.
	waitForFile(t, crash, ck, &crashOut)
	crash.Process.Signal(syscall.SIGKILL)
	crash.Wait() // exit state is irrelevant — the snapshot file is the contract

	var resOut bytes.Buffer
	res := exec.Command(bin, "-resume", ck)
	res.Stdout = &resOut
	if err := res.Run(); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !bytes.Equal(refOut.Bytes(), resOut.Bytes()) {
		t.Fatalf("resumed output differs from uninterrupted reference\n--- reference ---\n%s--- resumed ---\n%s",
			refOut.String(), resOut.String())
	}
}

// TestInterruptResumeHarnessCLI is the end-to-end SIGINT drill: build
// hiersim, interrupt a checkpointed run once its first snapshot generation
// exists, and require a clean exit that names the flushed snapshot, from
// which -resume prints output byte-identical to an uninterrupted run. A run
// without -checkpoint, interrupted once its session is built, prints the
// partial run's final snapshot instead.
func TestInterruptResumeHarnessCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals child processes")
	}
	dir := t.TempDir()
	bin := buildHiersim(t, dir)

	args := []string{"-system", "round-robin", "-servers", "8", "-jobs", "40000", "-seed", "5"}
	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	ck := filepath.Join(dir, "sigint.ckpt")
	var intOut bytes.Buffer
	run := exec.Command(bin, append(append([]string{}, args...),
		"-checkpoint", ck, "-checkpoint-every", "300")...)
	run.Stdout = &intOut
	if err := run.Start(); err != nil {
		t.Fatalf("start checkpointed run: %v", err)
	}
	waitForFile(t, run, ck, &intOut)
	run.Process.Signal(syscall.SIGINT)
	if err := run.Wait(); err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, intOut.String())
	}
	if want := "interrupted — snapshot flushed; resume with -resume " + ck; !strings.Contains(intOut.String(), want) {
		t.Fatalf("interrupted run did not print %q; output:\n%s", want, intOut.String())
	}
	resumed, err := exec.Command(bin, "-resume", ck).Output()
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !bytes.Equal(ref, resumed) {
		t.Fatalf("resumed output differs from uninterrupted reference\n--- reference ---\n%s--- resumed ---\n%s",
			ref, resumed)
	}

	// Without -checkpoint: the telemetry endpoint's address line on stderr
	// marks a built session (the signal handler is installed before it), and
	// the run left after it takes far longer than delivering the signal.
	var plainOut bytes.Buffer
	plain := exec.Command(bin, "-system", "round-robin", "-servers", "8", "-jobs", "400000", "-seed", "5",
		"-telemetry-addr", "127.0.0.1:0")
	plain.Stdout = &plainOut
	stderr, err := plain.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Start(); err != nil {
		t.Fatalf("start plain run: %v", err)
	}
	errs := bufio.NewReader(stderr)
	if line, err := errs.ReadString('\n'); err != nil || !strings.Contains(line, "telemetry:") {
		plain.Process.Kill()
		plain.Wait()
		t.Fatalf("plain run: no telemetry line on stderr (%q, %v)", line, err)
	}
	plain.Process.Signal(syscall.SIGINT)
	rest, _ := io.ReadAll(errs) // every read precedes Wait, which closes the pipe
	if err := plain.Wait(); err != nil {
		t.Fatalf("interrupted plain run: %v\n%s%s", err, plainOut.String(), rest)
	}
	if !strings.Contains(plainOut.String(), "interrupted — final snapshot") {
		t.Fatalf("interrupted plain run printed no final snapshot; output:\n%s", plainOut.String())
	}
}
