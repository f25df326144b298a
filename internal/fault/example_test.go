package fault_test

import (
	"fmt"

	"shahin/internal/fault"
)

// ExampleRetryable shows which chain errors the chain retries:
// everything wrapping ErrTransient (injected faults, outages, per-call
// deadline misses) is retryable; an open circuit breaker is not — the
// degradation ladder answers instead of hammering a failing backend.
func ExampleRetryable() {
	fmt.Println(fault.Retryable(fault.ErrInjected))
	fmt.Println(fault.Retryable(fault.ErrTimeout))
	fmt.Println(fault.Retryable(fault.ErrBreakerOpen))
	// Output:
	// true
	// true
	// false
}
