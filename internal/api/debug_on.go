//go:build flexdebug

package api

import (
	_ "unsafe" // for go:linkname

	_ "flextoe/internal/shm" // defines checkViews
)

// checkViews panics when a is a payload-ring view whose generation has
// ended (shm.PayloadBuf.Slices): the view helpers check every view they
// are handed.
//
//go:linkname checkViews flextoe/internal/shm.checkViews
func checkViews(a, b []byte)
