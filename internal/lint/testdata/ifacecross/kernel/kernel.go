// Package kernel is the implementing half of the ifacecross fixture:
// its OnResult is hot only through nvme's interface call.
package kernel

import "repro/internal/lint/testdata/ifacecross/nvme"

type record struct{ status int }

type req struct{ last *record }

// OnResult satisfies nvme.Receiver.
func (r *req) OnResult(res *nvme.Result) {
	r.last = &record{res.Status} // want:hotalloc
}
