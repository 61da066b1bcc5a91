package value

// ScanAndHash returns the two indexes NewIndex may build over vals, the
// scan and the fingerprint index, whatever vals' length.
func ScanAndHash(vals []Value) (scan, hashed *Index) {
	scan, hashed = &Index{vals: vals}, &Index{vals: vals}
	hashed.hash()
	return scan, hashed
}
