package packet

import "fmt"

// String formats the address as colon-separated hex, for the tests'
// messages.
func (a EtherAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}
