package vclock

import "syscall"

// osYield gives the thread's CPU to another runnable thread, if there is
// one: a woken worker can land on the CPU of the goroutine it waits for,
// and spinning there would hold that goroutine off its own CPU until the
// kernel's next tick (≈ 4 ms on the benchmark host).
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
