/* strncpy with a negative (huge size_t) bound copies the whole source;
   the destination is the last bytes of a one-page heap block, so the
   copy faults past its end. */
extern void* malloc(long n);
extern char* strncpy(char* d, const char* s, long n);
int main(void) { char* p = (char*) malloc(4096); strncpy(p + 4092, "hello", -1); return 0; }
