package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with microsecond precision for the open loop. Go's timers
// wake an idle process on a millisecond tick, which would put the
// generator's own lateness into every latency it records; a timerfd read
// through the runtime's network poller wakes as soon as the kernel timer
// fires, like a socket that became readable.
type pacer struct {
	fd  uintptr  // kept raw: os.File.Fd would switch the file to blocking mode
	f   *os.File // the same descriptor, read through the poller
	buf [8]byte
}

func newPacer() *pacer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &pacer{} // fall back to time.Sleep
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// sleep waits d nanoseconds.
func (p *pacer) sleep(d int64) {
	if p.f != nil {
		spec := [4]int64{0, 0, d / 1e9, d % 1e9} // itimerspec: no interval, then the value
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno == 0 {
			if _, err := p.f.Read(p.buf[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Duration(d))
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
