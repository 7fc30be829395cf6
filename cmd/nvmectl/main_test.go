package main

import (
	"strings"
	"testing"
)

// TestResolveRejectsBadOptions pins the flag values that used to print
// nothing, list a default-sized array, or panic inside the boot: each is
// now a one-line error before anything boots.
func TestResolveRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name    string
		cmd     string
		config  string // "" = irq
		ssds    int
		dev     int
		wantErr string // "" = accepted
	}{
		{name: "profile of a device past the array", cmd: "profile", ssds: 4, dev: 99,
			wantErr: "profile: -dev must be in [0,4), got 99"},
		{name: "negative ssds", cmd: "list", ssds: -2, dev: -1, wantErr: "-ssds must be >= 1, got -2"},
		{name: "zero ssds", cmd: "list", ssds: 0, dev: -1, wantErr: "-ssds must be >= 1, got 0"},
		{name: "profile of the last device", cmd: "profile", ssds: 4, dev: 3},
		{name: "profile of every device", cmd: "profile", ssds: 4, dev: -1},
		{name: "profile below -1", cmd: "profile", ssds: 4, dev: -2,
			wantErr: "profile: -dev must be in [0,4), got -2"},
		{name: "list", cmd: "list", ssds: 1, dev: -1},
		{name: "list past the array", cmd: "list", ssds: 4, dev: 4,
			wantErr: "list: -dev must be in [0,4), got 4"},
		{name: "id-ctrl without a device", cmd: "id-ctrl", ssds: 4, dev: -1,
			wantErr: "id-ctrl: -dev must be in [0,4), got -1"},
		{name: "smart-log past the array", cmd: "smart-log", ssds: 4, dev: 4,
			wantErr: "smart-log: -dev must be in [0,4), got 4"},
		{name: "format of device 0", cmd: "format", ssds: 4, dev: 0},
		{name: "unknown command", cmd: "reset", ssds: 4, dev: 0,
			wantErr: `unknown command "reset" (have list, id-ctrl, smart-log, format, profile)`},
		{name: "unknown config", cmd: "list", config: "nope", ssds: 4, dev: -1,
			wantErr: `unknown config "nope" (have default, chrt, isolcpus, irq, expfw)`},
		{name: "expfw config", cmd: "smart-log", config: "expfw", ssds: 4, dev: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			config := tc.config
			if config == "" {
				config = "irq"
			}
			_, err := resolve(tc.cmd, config, tc.ssds, tc.dev)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.wantErr) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, tc.wantErr)
			}
		})
	}
}

// TestRunGoldens pins every command's output byte for byte at -ssds 4:
// the command succeeds and writes nothing on stderr.
func TestRunGoldens(t *testing.T) {
	cases := []struct{ name, args, want string }{
		{name: "list", args: "list -ssds 4", want: `Node         Model            Serial           Capacity       FW
/dev/nvme0   CB-AFA-M2-960    S4FANX0M000000     960GB standard
/dev/nvme1   CB-AFA-M2-960    S4FANX0M000001     960GB standard
/dev/nvme2   CB-AFA-M2-960    S4FANX0M000002     960GB standard
/dev/nvme3   CB-AFA-M2-960    S4FANX0M000003     960GB standard
`},
		{name: "id-ctrl", args: "id-ctrl -ssds 4 -dev 1", want: `mn        : CB-AFA-M2-960
sn        : S4FANX0M000001
fr        : standard
tnvmcap   : 960 GB
nn        : 1
mdts      : 128 KiB
`},
		{name: "smart-log", args: "smart-log -ssds 4 -dev 1", want: `Smart Log for NVME device nvme1
power_on_ios            : 1
smart_windows           : 0
ios_blocked_by_smart    : 0
firmware_build          : standard
`},
		{name: "format", args: "format -ssds 4 -dev 1", want: `Success formatting namespace 1 of /dev/nvme1 (device is FOB)
`},
		{name: "profile", args: "profile -ssds 4 -dev 1", want: `nvme1   avg=35.5µs 99%=38.1µs 99.9%=39.4µs 99.99%=39.9µs 99.999%=39.9µs 99.9999%=39.9µs max=40.2µs
`},
		{name: "profile of every device", args: "profile -ssds 4", want: `nvme0   avg=35.5µs 99%=38.7µs 99.9%=40.2µs 99.99%=42.0µs 99.999%=42.0µs 99.9999%=42.0µs max=42.0µs
nvme1   avg=35.5µs 99%=38.4µs 99.9%=39.9µs 99.99%=42.0µs 99.999%=42.0µs 99.9999%=42.0µs max=42.1µs
nvme2   avg=35.5µs 99%=38.9µs 99.9%=40.2µs 99.99%=41.0µs 99.999%=41.0µs 99.9999%=41.0µs max=41.2µs
nvme3   avg=35.5µs 99%=39.2µs 99.9%=41.0µs 99.99%=41.7µs 99.999%=41.7µs 99.9999%=41.7µs max=41.7µs
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			if got := stdout.String(); got != tc.want {
				t.Errorf("output moved:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestRunRejectsUsageErrors drives the exit paths that stop before
// anything boots: each returns 2 with one line on stderr and nothing
// on stdout.
func TestRunRejectsUsageErrors(t *testing.T) {
	cases := []struct{ name, args, wantErr string }{
		{name: "no command", args: "", wantErr: "usage: nvmectl <list|id-ctrl|smart-log|format|profile> [flags]"},
		{name: "unknown command", args: "reset -ssds 4 -dev 0", wantErr: `nvmectl: unknown command "reset"`},
		{name: "unknown flag", args: "list -ssd 4", wantErr: "nvmectl: flag provided but not defined: -ssd"},
		{name: "stray argument", args: "list extra -ssds 2", wantErr: `nvmectl: unexpected argument "extra"`},
		{name: "bad ssds", args: "list -ssds 0", wantErr: "nvmectl: -ssds must be >= 1, got 0"},
		{name: "bad dev", args: "profile -ssds 4 -dev 99", wantErr: "nvmectl: profile: -dev must be in [0,4), got 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want nothing", stdout.String())
			}
			if msg := stderr.String(); !strings.HasPrefix(msg, tc.wantErr) || strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
				t.Errorf("stderr %q, want one line starting %q", msg, tc.wantErr)
			}
		})
	}
}
