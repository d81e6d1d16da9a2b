//go:build !go1.23

package sim

// The kernel runs processes on iter.Pull coroutines, which need Go 1.23 or
// newer. This undefined name makes an older toolchain fail with a message
// that says so instead of a list of missing methods.
var _ = simKernelNeedsGo1_23
