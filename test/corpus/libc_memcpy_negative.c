/* A negative length is a huge size_t: the copy runs off the mapped
   stack and faults, nothing of that size is allocated. */
extern void* memcpy(void* d, const void* s, long n);
int main(void) { char a[8]; char b[8]; memcpy(a, b, -1); return 0; }
