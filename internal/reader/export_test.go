package reader

// Stop halts the slot loop after the current slot.
func (d *Device) Stop() { d.running = false }
