package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	user, sys := selfCPUSplit()
	return user + sys
}

// selfCPUSplit is this process's user and system CPU time.
func selfCPUSplit() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux this runs on).
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of another process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: bad cpu times for pid %d", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMiB reads VmHWM (peak resident set) of a process; "self" reads
// this one.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc: no VmHWM for %s", pid)
}

// mapCount counts this process's memory mappings.
func mapCount() int {
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte{'\n'})
}

// cpuTicks reads the machine's CPU time from the first line of
// /proc/stat, in clock ticks: the steal field (time a virtual machine's
// CPUs were runnable but the host ran something else) and the sum of all
// fields. Both are 0 where /proc/stat cannot be read.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// fsTypeName names the filesystem holding path, for the report.
func fsTypeName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
