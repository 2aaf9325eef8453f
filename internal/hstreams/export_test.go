package hstreams

// PricesEvaluated reports how many kernels the context's streams have
// priced in closed form since its last Reset: the misses of their
// price memos. The tests outside the package that drive whole
// applications read it.
func PricesEvaluated(c *Context) int {
	n := 0
	for i := range c.streams {
		n += c.streams[i].misses
	}
	return n
}
