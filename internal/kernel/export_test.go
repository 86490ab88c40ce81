package kernel

import "testing"

// ForEachArmB runs f as a sub-benchmark under every available dispatch arm
// (see forEachArm). It serves the benchmarks of this directory's external
// test package, which drive the kernels through the engine.
func ForEachArmB(b *testing.B, f func(*testing.B)) { forEachArm(b, f) }
