package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestModeRejectsFlagsItDoesNotRead builds the command and checks, on the
// real flag table, that setting a flag the chosen mode never reads exits
// non-zero naming the flag — `-mode swarm -workload-spec x.json` used to run
// to completion on the builtin datasets without opening the file — while
// flags the mode does read still pass the check.
func TestModeRejectsFlagsItDoesNotRead(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pfrl-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	unread := map[string][]string{
		"swarm": {"-workload-spec=x.json", "-topk=4", "-util-buckets=4", "-oversub=2", "-dataset=k8s",
			"-round-timeout=1s", "-rpc-timeout=1s", "-rejoin=0", "-async", "-addr=127.0.0.1:0"},
		"server": {"-dataset=k8s", "-workload-spec=x.json", "-rounds=1", "-comm=1", "-tasks=10",
			"-retries=1", "-rpc-timeout=1s", "-fault-spec=drop=0.1", "-rejoin=0"},
		"client": {"-clients=2", "-k=1", "-round-timeout=1s", "-async", "-staleness-bound=1", "-buffer=1",
			"-codec=i8", "-codec-delta"},
		"demo": {"-dataset=k8s", "-addr=127.0.0.1:0", "-rejoin=0"},
	}
	for mode, flags := range unread {
		for _, arg := range flags {
			out, err := exec.Command(bin, "-mode", mode, arg).CombinedOutput()
			name, _, _ := strings.Cut(arg, "=")
			if _, failed := err.(*exec.ExitError); !failed {
				t.Errorf("-mode %s %s: exit error = %v, want non-zero exit\n%s", mode, arg, err, out)
			} else if !strings.Contains(string(out), "-mode "+mode+" does not read "+name+" ") {
				t.Errorf("-mode %s %s: output does not name the flag:\n%s", mode, arg, out)
			}
		}
	}
	out, err := exec.Command(bin, "-mode", "swarm", "-clients", "2", "-k", "2", "-rounds", "1", "-comm", "1",
		"-tasks", "10", "-buffer", "2", "-staleness-bound", "1", "-retries", "2", "-seed", "3",
		"-codec", "i8", "-codec-delta", "-fault-spec", "drop=0.05").CombinedOutput()
	if err != nil {
		t.Fatalf("swarm with only flags it reads: %v\n%s", err, out)
	}
}
