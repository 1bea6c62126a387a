// The benchmark is its own module so the repository's build and tier-1
// tests never depend on it. The module path sits under "lachesis/" so
// the benchmark may import lachesis/internal/...; the replace directive
// resolves the parent module from the enclosing checkout.
module lachesis/bench

go 1.22

require lachesis v0.0.0

replace lachesis => ../
