package bench

import (
	"syscall"
	"time"
)

// cpuTime returns the user+system CPU time this process has used, all
// threads included (getrusage RUSAGE_SELF).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
