/* memset far past its buffer faults at the first unmapped byte. */
extern void* memset(void* p, int c, long n);
int main(void) { char a[8]; memset(a, 0, 100000000); return 0; }
