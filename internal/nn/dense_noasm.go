//go:build !amd64

package nn

// useAVX is false on platforms without the assembly kernel; every Dense
// layer runs applyRow, which computes identical bits. It is a variable,
// as on amd64, so tests can switch the kernel off on every platform.
var useAVX = false

// denseFwdAVX is unreachable while useAVX is false.
func denseFwdAVX(x, wt, bias, y *float64, in, out int) {
	panic("nn: denseFwdAVX called without assembly support")
}
