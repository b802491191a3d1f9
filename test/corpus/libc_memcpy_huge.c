/* A length of 2^62 - 1 faults at the first unmapped byte instead of
   being allocated up front. */
extern void* memcpy(void* d, const void* s, long n);
int main(void) { char a[8]; char b[8]; memcpy(a, b, 4611686018427387903); return 0; }
