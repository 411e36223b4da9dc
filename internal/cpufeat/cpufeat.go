// Package cpufeat centralizes runtime CPU feature detection for the
// hand-written SIMD kernel (internal/nn's dense forward pass).
// Detection runs once at process start; the kernel's package gates its
// assembly path on the exported flag and falls back to pure Go
// otherwise, so builds and tests behave identically on machines without
// the instructions.
package cpufeat
