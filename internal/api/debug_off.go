//go:build !flexdebug

package api

// checkViews is the release-build no-op of the flexdebug stale-view check.
func checkViews(a, b []byte) {}
