package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill cmd when this process dies, so a
// run killed from outside leaves no child process measuring on.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
