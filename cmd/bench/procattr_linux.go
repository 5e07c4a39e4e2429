package main

import (
	"os/exec"
	"syscall"
)

// bindLifetime makes the kernel kill cmd if this process dies first, so
// no worker or daemon outlives an interrupted benchmark.
func bindLifetime(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
