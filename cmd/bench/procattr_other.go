//go:build !linux

package main

import "os/exec"

// bindLifetime is a no-op where the kernel offers no parent-death signal;
// the benchmark still stops its children on every ordinary exit path.
func bindLifetime(*exec.Cmd) {}
